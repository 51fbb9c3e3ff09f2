package comm

import "sync"

// byteArena recycles payload buffers for the typed sends (Proc.SendPacked,
// and sendWords under the collectives) and the TCP reader. It is a simple
// mutex-protected free list rather than a sync.Pool: buffers are returned
// explicitly when ownership ends (see the ownership rule below), the
// population is bounded by the number of messages in flight, and we never
// want the GC to drop warm buffers between executor iterations.
//
// Ownership rule for pooled payloads:
//
//   - A buffer obtained with get belongs to the caller until it is handed
//     to a transport inside a Message whose pool field points back at the
//     arena.
//   - A transport that copies the payload out synchronously (TCP, which
//     writes it to the socket before Send returns) releases the buffer
//     itself, so it is reusable by the time Send returns.
//   - The in-memory transport aliases the payload all the way to the
//     receiver, so the buffer is released by the *receiver*: ReleaseView
//     ends a viewed receive, and recvWords (under AllToAllI32 and the other
//     collectives) decodes the payload into the caller's slice; both then
//     return the byte buffer to the sender's arena.
//   - Raw Proc.Recv hands the payload to the caller, which may retain it
//     indefinitely; such buffers are simply never reclaimed (the arena
//     allocates a replacement) — a lost reuse, never a use-after-release.
//   - The all-gathers' frames never come from the arena: the broadcast
//     hands one frame to several children, so no single receiver ends its
//     lifetime.
//
// Under this rule a buffer is mutated only by its current owner, so pooled
// sends are race-free on both transports.
type byteArena struct {
	mu   sync.Mutex
	free [][]byte
}

// roundUp returns the smallest power of two >= n (minimum 64), so that the
// free list holds a few capacity classes instead of one buffer per distinct
// message size.
func roundUp(n int) int {
	c := 64
	for c < n {
		c <<= 1
	}
	return c
}

// get returns a zero-length buffer with capacity at least n. It prefers a
// recycled buffer — the smallest that fits, the newest among equals, so a
// small request never takes the buffer a later large one needs — and
// allocates a fresh power-of-two one only when none fits; after warm-up,
// steady-state executor loops find a fit every time.
func (a *byteArena) get(n int) []byte {
	a.mu.Lock()
	best := -1
	for i := len(a.free) - 1; i >= 0; i-- {
		if c := cap(a.free[i]); c >= n && (best < 0 || c < cap(a.free[best])) {
			best = i
		}
	}
	if best < 0 {
		a.mu.Unlock()
		return make([]byte, 0, roundUp(n))
	}
	b := a.free[best]
	last := len(a.free) - 1
	a.free[best] = a.free[last]
	a.free[last] = nil
	a.free = a.free[:last]
	a.mu.Unlock()
	return b[:0]
}

// put returns a buffer to the free list. put may be called from any
// goroutine (receivers release senders' buffers).
func (a *byteArena) put(b []byte) {
	if cap(b) == 0 {
		return
	}
	a.mu.Lock()
	a.free = append(a.free, b)
	a.mu.Unlock()
}
