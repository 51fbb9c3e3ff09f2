// Package errdrop is a chaosvet fixture for the unchecked-peerfailure
// analyzer: comm/checkpoint errors silently discarded.
package errdrop

import (
	"repro/internal/checkpoint"
	"repro/internal/comm"
)

// BadDroppedClose discards the transport teardown error: a wedged peer
// connection (the precursor to PeerFailure) is never surfaced.
func BadDroppedClose(tr comm.Transport) {
	tr.Close() // want:unchecked-peerfailure
}

// BadDroppedResumeCheck drops the resume check's error: a checkpoint of
// another application or size goes on to be restored.
func BadDroppedResumeCheck(r *checkpoint.Recovery, n int64) {
	r.CheckResume("dsmc", n) // want:unchecked-peerfailure
}

// GoodCheckedClose propagates the teardown error.
func GoodCheckedClose(tr comm.Transport) error {
	return tr.Close()
}

// GoodExplicitDiscard documents the decision to ignore the error.
func GoodExplicitDiscard(tr comm.Transport) {
	_ = tr.Close()
}

// GoodDeferredClose is idiomatic best-effort cleanup; defers are exempt.
func GoodDeferredClose(tr comm.Transport) error {
	defer tr.Close()
	dir, err := checkpoint.ResolveResume("latest", "/tmp/nonexistent")
	_ = dir
	return err
}
