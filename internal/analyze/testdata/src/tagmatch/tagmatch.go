// Package tagmatch is a chaosvet fixture for the tag-match analyzer:
// constant point-to-point tags that only one side of the protocol uses.
package tagmatch

import "repro/internal/comm"

const (
	tagPing   = 7
	tagPong   = 8
	tagSplit  = 9
	tagOrphan = 99 // sent below but never received anywhere in the package
)

// BadOneSidedTag sends tag 99; no Recv in this package asks for it, so the
// intended receiver blocks forever on whatever tag it does ask for.
func BadOneSidedTag(p *comm.Proc) {
	if p.Size() < 2 {
		return
	}
	right := (p.Rank() + 1) % p.Size()
	p.Send(right, tagOrphan, []byte{1}) // want:tag-match
}

// BadOrphanRecv waits on tag 500, which nothing in the package sends.
func BadOrphanRecv(p *comm.Proc) []byte {
	if p.Size() < 2 {
		return nil
	}
	left := (p.Rank() - 1 + p.Size()) % p.Size()
	return p.Recv(left, 500) // want:tag-match
}

// BadOrphanViewedRecv views tag 501, which nothing in the package sends.
func BadOrphanViewedRecv(p *comm.Proc) []float64 {
	return p.RecvF64View(0, 501) // want:tag-match
}

// BadOrphanPackedSend sends tag 502, which nothing in the package receives.
func BadOrphanPackedSend(p *comm.Proc) {
	p.PackI32(1)[0] = 1
	p.SendPacked(1, 502) // want:tag-match
}

// GoodPairedTags is a matched ring exchange: every constant tag appears on
// both sides.
func GoodPairedTags(p *comm.Proc) {
	if p.Size() < 2 {
		return
	}
	right := (p.Rank() + 1) % p.Size()
	left := (p.Rank() - 1 + p.Size()) % p.Size()
	p.PackF64(1)[0] = 1
	p.SendPacked(right, tagPing)
	vals := p.RecvF64View(left, tagPing)
	copy(p.PackF64(len(vals)), vals)
	p.ReleaseView()
	p.SendPacked(left, tagPong)
	p.RecvF64View(right, tagPong)
	p.ReleaseView()
}

// GoodVariableTag uses a computed tag; the analyzer only judges constants.
func GoodVariableTag(p *comm.Proc, tag int) {
	if p.Size() < 2 {
		return
	}
	right := (p.Rank() + 1) % p.Size()
	left := (p.Rank() - 1 + p.Size()) % p.Size()
	p.Send(right, tag, nil)
	p.Recv(left, tag)
}

// GoodSplitPhasePair starts a send that a blocking Recv takes: SendStart is
// one side of the pairing like Send.
func GoodSplitPhasePair(p *comm.Proc) {
	if p.Size() < 2 {
		return
	}
	right := (p.Rank() + 1) % p.Size()
	left := (p.Rank() - 1 + p.Size()) % p.Size()
	pending := p.SendStart(right, tagSplit, []byte{1})
	p.Recv(left, tagSplit)
	pending.Wait()
}

// BadOrphanSendStart starts a send of tag 98, which nothing in the package
// receives.
func BadOrphanSendStart(p *comm.Proc) {
	p.SendStart(0, 98, nil).Wait() // want:tag-match
}
