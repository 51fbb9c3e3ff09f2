package comm

import "repro/internal/recycle"

// Packed sends and viewed receives are the typed point-to-point calls of a
// Proc. A caller writes its values straight into the outgoing payload, and
// reads the values of an arriving message straight out of the payload:
//
//	buf := p.PackF64(n) // an n-value view of an arena payload
//	... fill every buf[i] ...
//	p.SendPacked(to, tag)
//
//	vals := p.RecvF64View(from, tag) // a view of the payload that arrived
//	... read vals ...
//	p.ReleaseView() // the payload returns to the sender's arena
//
// A caller that gathers its message from scattered rows (a schedule's
// sections, a remap's destinations) needs no typed staging slice on either
// side; one that has its values in a slice copies them in, or out, once.
// The wire is the collectives' wire: PackF64, a copy of xs and SendPacked
// send what sendWords sends of xs, and recvWords decodes what RecvF64View
// views. Where no view can alias a payload — on a big-endian host, or for a
// payload at an address not aligned for the element type — Pack* hands out
// Proc-owned scratch that SendPacked encodes, and Recv*View decodes into
// Proc-owned scratch; callers cannot tell the difference.
//
// Ownership: one message is packed at a time (SendPacked before the next
// Pack*), and one view is live at a time (ReleaseView before the next
// Recv*View). A packed slice is dead once SendPacked returns and a view once
// ReleaseView returns; in test binaries both are poisoned there (package
// recycle), and a fresh pack is poisoned before the caller fills it, so a
// value left unwritten is loud.

// packKind says where the message being packed holds its values.
type packKind uint8

const (
	packNone packKind = iota // nothing packed
	packView                 // in the payload, written through a view
	packF64                  // in wireState.packF, encoded by SendPacked
	packI32                  // in wireState.packI, likewise
)

// wireState is a rank's packed message and live view. A Proc allocates it at
// its first Pack* or Recv*View call, so a rank that only takes part in
// collectives carries one nil pointer.
type wireState struct {
	// The packed message: its arena payload, exactly the message's bytes,
	// and where its values are until SendPacked.
	pack     []byte
	packKind packKind
	// The live view: the payload it aliases (zero if it was decoded), and
	// the view itself. poison says its memory is this rank's to overwrite
	// at release: a pooled payload, or the decode scratch.
	live   bool
	msg    Message
	viewF  []float64
	viewI  []int32
	poison bool
	// Scratch for values no view can alias, reused across messages.
	packF, viewScratchF []float64
	packI, viewScratchI []int32
}

// wireState returns the rank's pack and view state, allocating it at the
// first call.
func (p *Proc) wireState() *wireState {
	if p.wire == nil {
		p.wire = new(wireState)
	}
	return p.wire
}

// PackF64 returns an n-value slice for the caller to fill with the next
// message; SendPacked sends it. Every value must be written: the slice's
// old contents are unspecified. The slice is valid until SendPacked.
func (p *Proc) PackF64(n int) []float64 {
	ws := p.wireState()
	v := pack(ws, &p.arena, n, &ws.packF, packF64)
	recycle.PoisonF64(v)
	return v
}

// PackI32 is PackF64 for []int32 payloads.
func (p *Proc) PackI32(n int) []int32 {
	ws := p.wireState()
	v := pack(ws, &p.arena, n, &ws.packI, packI32)
	recycle.PoisonI32(v)
	return v
}

// pack draws the payload of an n-value message from the send arena and
// returns a view of it, or the scratch slice (as kind) where no view can
// alias it.
func pack[T word](ws *wireState, arena *byteArena, n int, scratch *[]T, kind packKind) []T {
	if ws.packKind != packNone {
		panic("comm: Pack with a packed message not yet sent (SendPacked it first)")
	}
	nb := n * sizeOf[T]()
	ws.pack = arena.get(nb)[:nb]
	if v, ok := viewOf[T](ws.pack); ok {
		ws.packKind = packView
		return v
	}
	ws.packKind = kind
	*scratch = recycle.Sized(*scratch, n)
	return *scratch
}

// SendPacked sends the message the last Pack* call handed out to rank `to`
// with the given tag. Its modeled cost is that of Send with the encoded
// bytes, and the payload returns to this rank's arena once the receiver
// releases it (TCP: once it is on the socket).
func (p *Proc) SendPacked(to, tag int) {
	ws := p.wireState()
	switch ws.packKind {
	case packNone:
		panic("comm: SendPacked with nothing packed")
	case packF64:
		appendWords(ws.pack[:0], ws.packF)
		recycle.PoisonF64(ws.packF)
	case packI32:
		appendWords(ws.pack[:0], ws.packI)
		recycle.PoisonI32(ws.packI)
	}
	buf := ws.pack
	ws.pack, ws.packKind = nil, packNone
	p.send(to, tag, buf, &p.arena)
}

// RecvF64View receives a []float64 payload from rank `from` with the given
// tag and returns a view of its values, valid until ReleaseView. The view
// must not be written.
func (p *Proc) RecvF64View(from, tag int) []float64 {
	ws := p.wireState()
	return recvView(p, ws, from, tag, &ws.viewF, &ws.viewScratchF)
}

// RecvI32View is RecvF64View for []int32 payloads.
func (p *Proc) RecvI32View(from, tag int) []int32 {
	ws := p.wireState()
	return recvView(p, ws, from, tag, &ws.viewI, &ws.viewScratchI)
}

// recvView receives one message and views it in place, or decodes it into
// scratch where no view can alias it.
func recvView[T word](p *Proc, ws *wireState, from, tag int, view, scratch *[]T) []T {
	if ws.live {
		panic("comm: Recv*View with a view still live (ReleaseView it first)")
	}
	m := p.recvMsg(from, tag)
	v, ok := viewOf[T](m.Data)
	if ok {
		ws.msg, ws.poison = m, m.pool != nil
	} else {
		*scratch = decodeInto(*scratch, m.Data)
		m.Release()
		v, ws.poison = *scratch, true
	}
	*view, ws.live = v, true
	return v
}

// ReleaseView ends the live view: its payload returns to the sender's arena.
// It is a no-op without a live view.
func (p *Proc) ReleaseView() {
	ws := p.wire
	if ws == nil || !ws.live {
		return
	}
	if ws.poison {
		recycle.PoisonF64(ws.viewF)
		recycle.PoisonI32(ws.viewI)
	}
	ws.msg.Release()
	ws.msg, ws.viewF, ws.viewI, ws.live = Message{}, nil, nil, false
}
