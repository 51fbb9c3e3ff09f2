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

// MapDecompositions returns the decompositions declared DISTRIBUTE(MAP),
// sorted.
func (pr *Program) MapDecompositions() []string {
	var out []string
	for name, k := range pr.ir.syms.dists {
		if k == distMap {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// indTargetN returns the size of the index space an indirection array's
// values refer to: the decomposition the FORALLs reading it index through it
// (a sum loop's own aligned decomposition, a pair loop's data decomposition,
// an append's target), or its own aligned decomposition when no FORALL reads
// it.
func (pr *Program) indTargetN(name string) int {
	t, ok := pr.ir.targets[name]
	if !ok {
		t = pr.ir.syms.inds[name].decomp
	}
	return pr.ir.syms.decomps[t].n
}

// NumSumLoops returns the number of FORALL/REDUCE(SUM) nests.
func (pr *Program) NumSumLoops() int { return len(pr.ir.ofKind(loopSum)) }
