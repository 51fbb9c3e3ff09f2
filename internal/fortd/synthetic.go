package fortd

import (
	"math"
	"sort"
)

// InitSynthetic fills every array of the instance with the deterministic
// synthetic data set shared by cmd/fortd, the benchmarks and the lowering
// property tests: REAL element (g, k) holds sin(g*0.1 + k); CSR indirection
// rows get degree pseudo-random partners; flat indirection entries map to a
// pseudo-random (name-salted) row of the append target. The data depends
// only on global indices, so two instances of the same program start
// bit-identical regardless of processor count or optimization level.
func (in *Instance) InitSynthetic(degree int) {
	prog := in.prog
	for _, name := range prog.RealNames() {
		in.Real(name).SetByGlobal(func(g int32, c []float64) {
			for k := range c {
				c[k] = math.Sin(float64(float64(g)*0.1) + float64(k))
			}
		})
	}
	var inds []string
	for name := range prog.ir.syms.inds {
		inds = append(inds, name)
	}
	sort.Strings(inds)
	for _, name := range inds {
		d := prog.ir.syms.inds[name]
		dec := in.Decomposition(d.decomp)
		if d.csr {
			n := int32(dec.N())
			ptr := make([]int32, dec.NLocal()+1)
			var vals []int32
			for i, g := range dec.Globals() {
				for d := 0; d < degree; d++ {
					vals = append(vals, (g*31+int32(d)*17+7)%n)
				}
				ptr[i+1] = int32(len(vals))
			}
			in.ind(name).SetCSR(ptr, vals)
		} else {
			targetN := int32(prog.indTargetN(name))
			salt := int32(0)
			for _, ch := range name {
				salt = salt*31 + int32(ch)
			}
			salt = (salt%97 + 97) % 97
			vals := make([]int32, dec.NLocal())
			for i, g := range dec.Globals() {
				vals[i] = (g*13 + 5 + salt) % targetN
			}
			in.ind(name).SetFlat(vals)
		}
	}
}
