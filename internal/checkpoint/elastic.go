package checkpoint

import (
	"fmt"
	"sort"
)

// FieldKind selects how an element-wise field is stored in a shard.
type FieldKind uint8

// Element field kinds.
const (
	// FieldF64 is a fixed-width float64 field: Width values per element in
	// a section named Field.Name.
	FieldF64 FieldKind = iota
	// FieldCSR is a variable-length int32 field in CSR form: element i owns
	// the segment val[ptr[i]:ptr[i+1]], stored in sections Name+".ptr" and
	// Name+".val".
	FieldCSR
)

// Field describes one element-wise array carried by a distribution's shards.
type Field struct {
	Name  string
	Kind  FieldKind
	Width int // values per element; ignored for FieldCSR
}

// elements is the merged element-wise state of one or more shards, in
// ascending-global order (the repository's local layout convention, so a
// Dist built from Globals describes these arrays directly).
type elements struct {
	globals []int32
	F64     map[string][]float64
	CSRPtr  map[string][]int32
	CSRVal  map[string][]int32
}

// mergeShards concatenates the element-wise sections of the given shards
// (each must carry a "globals" int32 section plus every requested field)
// and sorts the result into ascending-global order. It is the local half of
// elastic restore: after round-robin shard assignment, each rank merges
// whatever elements it read, and the resulting (Globals, arrays) pair is a
// valid local layout from which the runtime can rebuild a distribution and
// repartition onto the new processor count.
func mergeShards(shards []*Snapshot, fields []Field) (*elements, error) {
	e := &elements{
		F64:    map[string][]float64{},
		CSRPtr: map[string][]int32{},
		CSRVal: map[string][]int32{},
	}
	for _, f := range fields {
		if f.Kind != FieldCSR && f.Width < 1 {
			return nil, fmt.Errorf("checkpoint: field %q has width %d", f.Name, f.Width)
		}
	}

	// Concatenate in shard order, validating per-shard lengths.
	for si, sh := range shards {
		globals, err := sh.I32("globals")
		if err != nil {
			return nil, err
		}
		n := len(globals)
		e.globals = append(e.globals, globals...)
		for _, f := range fields {
			switch f.Kind {
			case FieldF64:
				xs, err := sh.F64(f.Name)
				if err != nil {
					return nil, err
				}
				if len(xs) != n*f.Width {
					return nil, fmt.Errorf("checkpoint: shard %d field %q has %d values for %d elements of width %d", si, f.Name, len(xs), n, f.Width)
				}
				e.F64[f.Name] = append(e.F64[f.Name], xs...)
			case FieldCSR:
				ptr, err := sh.I32(f.Name + ".ptr")
				if err != nil {
					return nil, err
				}
				val, err := sh.I32(f.Name + ".val")
				if err != nil {
					return nil, err
				}
				if err := checkCSR(ptr, val, n); err != nil {
					return nil, fmt.Errorf("checkpoint: shard %d field %q: %w", si, f.Name, err)
				}
				// Concatenate as per-element segments: shift this shard's
				// pointers past what is already merged.
				base := int32(0)
				if p := e.CSRPtr[f.Name]; len(p) > 0 {
					base = p[len(p)-1]
				} else {
					e.CSRPtr[f.Name] = []int32{0}
				}
				for i := 1; i <= n; i++ {
					e.CSRPtr[f.Name] = append(e.CSRPtr[f.Name], base+ptr[i])
				}
				e.CSRVal[f.Name] = append(e.CSRVal[f.Name], val...)
			}
		}
	}

	// Sort into ascending-global order and apply the permutation.
	n := len(e.globals)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return e.globals[perm[a]] < e.globals[perm[b]] })
	for k := 1; k < n; k++ {
		if e.globals[perm[k]] == e.globals[perm[k-1]] {
			return nil, fmt.Errorf("checkpoint: duplicate global %d across shards", e.globals[perm[k]])
		}
	}

	sorted := make([]int32, n)
	for k, i := range perm {
		sorted[k] = e.globals[i]
	}
	e.globals = sorted
	for _, f := range fields {
		switch f.Kind {
		case FieldF64:
			old := e.F64[f.Name]
			out := make([]float64, len(old))
			for k, i := range perm {
				copy(out[k*f.Width:], old[i*f.Width:(i+1)*f.Width])
			}
			e.F64[f.Name] = out
		case FieldCSR:
			ptr, val := e.CSRPtr[f.Name], e.CSRVal[f.Name]
			if len(ptr) == 0 {
				ptr = []int32{0}
			}
			newPtr := make([]int32, 1, n+1)
			newVal := make([]int32, 0, len(val))
			for _, i := range perm {
				newVal = append(newVal, val[ptr[i]:ptr[i+1]]...)
				newPtr = append(newPtr, int32(len(newVal)))
			}
			e.CSRPtr[f.Name] = newPtr
			e.CSRVal[f.Name] = newVal
		}
	}
	return e, nil
}

// checkCSR validates a CSR pair read from disk: monotone non-negative
// pointers, n+1 of them, final pointer matching the value count.
func checkCSR(ptr, val []int32, n int) error {
	if len(ptr) != n+1 {
		return fmt.Errorf("%d pointers for %d elements", len(ptr), n)
	}
	if n >= 0 && len(ptr) > 0 && ptr[0] != 0 {
		return fmt.Errorf("first pointer %d, want 0", ptr[0])
	}
	for i := 1; i < len(ptr); i++ {
		if ptr[i] < ptr[i-1] {
			return fmt.Errorf("pointer %d decreases (%d after %d)", i, ptr[i], ptr[i-1])
		}
	}
	if len(ptr) > 0 && int(ptr[len(ptr)-1]) != len(val) {
		return fmt.Errorf("final pointer %d but %d values", ptr[len(ptr)-1], len(val))
	}
	return nil
}
