package recycle

import (
	"math"
	"testing"
)

func TestSized(t *testing.T) {
	fresh := Sized[int32](nil, 10)
	if len(fresh) != 10 || cap(fresh) != 10 {
		t.Errorf("nil buffer: len %d cap %d, want an exact 10", len(fresh), cap(fresh))
	}
	kept := Sized(fresh, 4)
	if len(kept) != 4 || &kept[0] != &fresh[0] {
		t.Errorf("a large enough buffer was not reused")
	}
	grown := Sized(fresh, 80)
	if len(grown) != 80 || cap(grown) != 90 {
		t.Errorf("outgrown buffer: len %d cap %d, want 80 with 1/8 headroom", len(grown), cap(grown))
	}
	if empty := Sized([]float64{}, 0); len(empty) != 0 {
		t.Errorf("zero-length request returned %d elements", len(empty))
	}
}

// TestPoisonCoversCapacity: in a test binary a retired buffer is overwritten
// over its whole backing array, not just its current length.
func TestPoisonCoversCapacity(t *testing.T) {
	f := make([]float64, 8)[:3]
	PoisonF64(f)
	for i, v := range f[:cap(f)] {
		if !math.IsNaN(v) {
			t.Errorf("float64 element %d reads %v after poisoning", i, v)
		}
	}
	x := make([]int32, 8)[:0]
	PoisonI32(x)
	for i, v := range x[:cap(x)] {
		if v != math.MinInt32 {
			t.Errorf("int32 element %d reads %d after poisoning", i, v)
		}
	}
	PoisonF64(nil)
	PoisonI32(nil)
}
