package fortd

import "sort"

// Introspection helpers used by drivers (cmd/fortd) to initialize a
// compiled program's arrays generically.

// RealNames returns the declared REAL array names, sorted.
func (pr *Program) RealNames() []string {
	var out []string
	for name := range pr.ir.syms.reals {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// IndNames returns the declared INDIRECTION array names, sorted.
func (pr *Program) IndNames() []string {
	var out []string
	for name := range pr.ir.syms.inds {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// DecompositionNames returns the declared decomposition names, sorted.
func (pr *Program) DecompositionNames() []string {
	var out []string
	for name := range pr.ir.syms.decomps {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// MapDecompositions returns the decompositions declared DISTRIBUTE(MAP),
// sorted.
func (pr *Program) MapDecompositions() []string {
	var out []string
	for name, k := range pr.ir.syms.dists {
		if k == DistMap {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// IndDecomp returns the decomposition an indirection array is aligned with.
func (pr *Program) IndDecomp(name string) string {
	d, ok := pr.ir.syms.inds[name]
	if !ok {
		panic("fortd: unknown indirection array " + name)
	}
	return d.decomp
}

// IndIsCSR reports whether the indirection array has CSR form.
func (pr *Program) IndIsCSR(name string) bool {
	d, ok := pr.ir.syms.inds[name]
	if !ok {
		panic("fortd: unknown indirection array " + name)
	}
	return d.csr
}

// IndTargetN returns the size of the index space an indirection array's
// values refer to: the decomposition the FORALLs reading it index through it
// (a sum loop's own aligned decomposition, a pair loop's data decomposition,
// an append's target), or its own aligned decomposition when no FORALL reads
// it.
func (pr *Program) IndTargetN(name string) int {
	syms := pr.ir.syms
	if t, ok := pr.ir.targets[name]; ok {
		return syms.decomps[t].n
	}
	d, ok := syms.inds[name]
	if !ok {
		panic("fortd: unknown indirection array " + name)
	}
	return syms.decomps[d.decomp].n
}

// NumSumLoops returns the number of FORALL/REDUCE(SUM) nests.
func (pr *Program) NumSumLoops() int { return len(pr.ir.ofKind(loopSum)) }

// NumAppendLoops returns the number of REDUCE(APPEND) nests.
func (pr *Program) NumAppendLoops() int { return len(pr.ir.ofKind(loopAppend)) }

// NumPairLoops returns the number of single-level two-indirection
// reduction nests (the Figure 2 bonded template).
func (pr *Program) NumPairLoops() int { return len(pr.ir.ofKind(loopPair)) }
