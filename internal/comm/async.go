package comm

// Split-phase sends. SendStart is the blocking send issued early: it charges
// the virtual cost model exactly like Send — the per-message overhead Alpha
// at issue time, arrival computed from that departure — and hands the frame
// to the transport on the caller's thread. Modeled clocks are therefore
// bit-identical whether a program uses Send or SendStart+Wait, and per-link
// FIFO order holds across the two spellings; only measured wall time can
// change.
//
// No background sender is needed because Transport.Send must not block
// indefinitely, and every transport drains frames into the receiver's
// tag-matching mailboxes from its own goroutines (the in-memory mailbox,
// TCP's per-connection readers, DelayTransport's couriers, the fault
// injector). Frames sent before a rank computes are buffered at the
// receiver, and a later receive completes without blocking.

// Pending is the handle returned by SendStart. The send is complete when
// SendStart returns, so the handle carries nothing and Wait is a no-op.
type Pending struct{}

// Wait completes a split-phase send: a no-op, kept so split-phase programs
// read as Start … Wait.
func (Pending) Wait() {}

// SendStart begins a split-phase send of data to rank `to`. It is Send:
// the virtual charge and the hand-off to the transport both happen here, so
// a failing send (PeerFailure on a dead TCP link) panics here too. Send's
// ownership rule applies to data.
func (p *Proc) SendStart(to, tag int, data []byte) Pending {
	p.send(to, tag, data, nil)
	return Pending{}
}

// InvalidateRecvSample drops the cached receive-path wall reading. The
// amortized sampling in recvMsg assumes blocking receives back to back; a
// split-phase motion (schedule's *Start spellings) calls this at issue, so
// the first receive of its Wait takes a fresh start reading — reusing a
// reading taken before the caller's uncharged overlap work would bill that
// work to Measured.CommWall.
func (p *Proc) InvalidateRecvSample() { p.lastSample = staleSample }
