package comm_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/comm/commtest"
	"repro/internal/costmodel"
)

// TestMailboxFinishedPeerFailsTheReceive: a rank that waits for a message
// from a peer whose body returned without sending it fails within a
// second, naming the receive — and, for a reserved tag, the collective —
// instead of waiting forever, on every in-memory column, the
// courier-delayed and the measured ones included.
func TestMailboxFinishedPeerFailsTheReceive(t *testing.T) {
	cols := []commtest.Transport{commtest.Mem, commtest.Fault, commtest.Delay, commtest.Measured, commtest.Multiplexed}
	rows := []struct {
		name string
		body func(p *comm.Proc) // rank 0's; rank 1 returns at once
		tag  string
	}{
		{"Recv", func(p *comm.Proc) { p.Recv(1, 7) }, "tag 7"},
		{"Barrier", (*comm.Proc).Barrier, fmt.Sprintf("tag %d (Barrier)", comm.TagBarrier)},
	}
	for _, k := range cols {
		t.Run(k.String(), func(t *testing.T) {
			for _, row := range rows {
				t.Run(row.name, func(t *testing.T) {
					failed := make(chan string, 1)
					go func() {
						defer func() { failed <- fmt.Sprint(recover()) }()
						_, err := commtest.Try(k, 2, costmodel.Uniform(1e-9), func(p *comm.Proc) {
							if p.Rank() == 0 {
								row.body(p)
							}
						})
						if err != nil {
							t.Error(err)
						}
					}()
					select {
					case msg := <-failed:
						want := "rank 0 panicked: comm: rank 0 waits for a message with " + row.tag + " from rank 1, which has returned"
						if !strings.Contains(msg, want) {
							t.Errorf("the run failed with %q, want %q", msg, want)
						}
					case <-time.After(time.Second):
						t.Fatal("rank 0 still waits for its finished peer after 1 s")
					}
				})
			}
		})
	}
}
