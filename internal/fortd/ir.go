package fortd

import (
	"fmt"
	"sort"
	"strings"
)

// This file is the program-level dataflow pass over the analyzed statement
// tree: one representation (loop-nest structure, the ADAPT definitions of
// INDIRECTION arrays, one descriptor and inspector signature per FORALL)
// plus the three analyses the paper's §4 compile-time support calls for —
//
//   - schedule reuse: FORALLs whose inspectors hash the identical set of
//     indirection arrays over the same data decomposition can share one
//     stamped hash table and one communication schedule;
//   - inspector hoisting: a loop inside a DO time loop whose indirection
//     arrays have no ADAPT definition anywhere in that DO body has a
//     loop-invariant inspector, which can run once at DO entry with the
//     per-iteration modification-record guard compiled away;
//   - message fusion: adjacent FORALLs sharing one schedule can gather and
//     scatter through one message per peer instead of one per loop, and a
//     REDUCE(APPEND) can derive the destination-row sizes from the data
//     motion itself instead of building a fresh schedule per execution.
//
// The same pass powers both consumers: InstantiateOptimized applies the
// resulting plan, and Vet reports each opportunity as a positioned
// diagnostic (cmd/fortd -vet).

// irScope is one loop-nest level: the program top level or a DO body.
type irScope struct {
	parent *irScope
	doN    int // 0 at the root
	pos    Pos
	stmts  []irStmt
}

// irStmt is one statement in a scope: exactly one of loop, adapt or child
// is set.
type irStmt struct {
	loop  *irLoop
	adapt string   // ADAPT target, "" otherwise
	child *irScope // nested DO
}

// irLoop is the one descriptor of a FORALL, whatever its form: the AST it
// lowers (whose subscripts analysis marked with their side), its inspector
// signature (the sorted indirection arrays it hashes and the decomposition
// the resulting schedule spans) and its executor's arrays and cost.
type irLoop struct {
	kind  loopKind
	f     *forall
	ord   int // source order among all FORALLs
	scope *irScope
	inds  []string // sorted indirection arrays the inspector hashes
	// ia and ib are a pair loop's i-side and j-side flat indirections (ib
	// equals ia when the body names only one).
	ia, ib string
	// dataDec is the decomposition the schedule communicates over (gather
	// and scatter targets for sum/pair loops, append destination rows for
	// append loops).
	dataDec string
	readArr string // "" for append loops
	redArr  string // "" for append loops
	width   int    // components per element (append: per record)
	flops   int    // modeled arithmetic per pair or iteration

	// Analysis results.
	group      int      // schedule-sharing group, -1 if alone
	hoistScope *irScope // outermost DO the inspector hoists out of, nil if none
}

// sig is the inspector signature: loops with equal signatures build
// identical hash tables and schedules.
func (l *irLoop) sig() string {
	return l.kind.String() + "|" + l.dataDec + "|" + strings.Join(l.inds, ",")
}

// irProgram is the analyzed whole program: the symbol table, the statement
// tree and the program-level analysis results.
type irProgram struct {
	file  string
	syms  *symbols
	root  *irScope
	loops []*irLoop // indexed by ord

	// targets maps each indirection array a FORALL reads to the
	// decomposition its values index.
	targets map[string]string

	// groups lists schedule-sharing groups: each entry holds the ords of
	// loops with an identical inspector signature, in program order.
	// Singleton groups are omitted.
	groups [][]int

	// fuseRuns lists maximal runs of same-group loops that are adjacent
	// statements of one scope with no executor hazard between them; each
	// run (len >= 2) is gathered and scattered as one message per peer.
	fuseRuns [][]int
}

// ofKind returns the loops of one form, in program order.
func (ir *irProgram) ofKind(k loopKind) []*irLoop {
	var out []*irLoop
	for _, l := range ir.loops {
		if l.kind == k {
			out = append(out, l)
		}
	}
	return out
}

// findGroups assigns schedule-sharing groups: loops with equal inspector
// signatures (same sorted indirection arrays, same data decomposition,
// same template class) build bit-identical hash tables and schedules, so
// one build serves them all. Append loops are excluded — their inspector
// is rebuilt per execution from run-time destination rows, which the
// append-motion optimization eliminates instead.
func (ir *irProgram) findGroups() {
	bySig := map[string][]int{}
	var sigs []string
	for _, l := range ir.loops {
		if l.kind == loopAppend {
			continue
		}
		s := l.sig()
		if _, ok := bySig[s]; !ok {
			sigs = append(sigs, s)
		}
		bySig[s] = append(bySig[s], l.ord)
	}
	sort.Strings(sigs)
	for _, s := range sigs {
		ords := bySig[s]
		if len(ords) < 2 {
			continue
		}
		sort.Ints(ords)
		g := len(ir.groups)
		for _, ord := range ords {
			ir.loops[ord].group = g
		}
		ir.groups = append(ir.groups, ords)
	}
}

// scopeHasDef reports whether any of the named indirection arrays has an
// ADAPT definition inside sc's subtree.
func (ir *irProgram) scopeHasDef(sc *irScope, inds []string) bool {
	for _, st := range sc.stmts {
		if st.adapt != "" {
			for _, ind := range inds {
				if st.adapt == ind {
					return true
				}
			}
		}
		if st.child != nil && ir.scopeHasDef(st.child, inds) {
			return true
		}
	}
	return false
}

// findHoists computes, per loop, the outermost enclosing DO whose body
// (transitively) contains no ADAPT of any indirection array the loop's
// inspector hashes. Within one Step the only definitions of an indirection
// array are ADAPT statements — host-side SetCSR/SetFlat/Redistribute happen
// between Steps — so an inspector with no reaching definition inside the DO
// is loop-invariant there.
func (ir *irProgram) findHoists() {
	for _, l := range ir.loops {
		if l.kind == loopAppend {
			// Append inspectors are rebuilt from run-time destination rows;
			// their optimization is the fused data motion, not hoisting.
			continue
		}
		for sc := l.scope; sc != nil && sc.parent != nil; sc = sc.parent {
			// sc is a DO scope (only the root has parent == nil).
			if ir.scopeHasDef(sc, l.inds) {
				break
			}
			l.hoistScope = sc
		}
	}
}

// fuseHazard reports whether executing b's gather before a's reduction
// lands (the fused order) changes results: it does exactly when b reads the
// array a reduces into.
func fuseHazard(a, b *irLoop) bool {
	return a.redArr != "" && a.redArr == b.readArr
}

// findFuseRuns finds maximal runs of adjacent same-scope, same-group
// statements with no pairwise executor hazard. Members of a run share one
// schedule already (same group), so their gathers and scatters can ride one
// message per peer.
func (ir *irProgram) findFuseRuns() {
	var walk func(sc *irScope)
	walk = func(sc *irScope) {
		run := []int{}
		flush := func() {
			if len(run) >= 2 {
				ir.fuseRuns = append(ir.fuseRuns, run)
			}
			run = []int{}
		}
		for i := range sc.stmts {
			st := &sc.stmts[i]
			if st.child != nil {
				flush()
				walk(st.child)
				continue
			}
			if st.loop == nil || st.loop.group < 0 {
				flush()
				continue
			}
			l := st.loop
			if len(run) > 0 {
				prev := ir.loops[run[len(run)-1]]
				ok := prev.group == l.group
				for _, m := range run {
					if fuseHazard(ir.loops[m], l) {
						ok = false
					}
				}
				if !ok {
					flush()
				}
			}
			run = append(run, l.ord)
		}
		flush()
	}
	walk(ir.root)
}

// Diag is one positioned diagnostic from the program-level analyses,
// reported by Vet / `fortd -vet` (and mirrored by the chaosvet sched-reuse
// analyzer for hand-written Go CHAOS code).
type Diag struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Kind    string `json:"kind"` // reuse | subset | hoist | fuse
	Message string `json:"message"`
}

func (d Diag) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Kind, d.Message)
}

// findings renders the analysis results as diagnostics: every opportunity
// the optimizer would take at -O (schedule reuse, inspector hoisting,
// message fusion, append-motion size counts), plus subset-usage advisories
// the optimizer deliberately leaves alone.
func (ir *irProgram) findings() []Diag {
	var out []Diag
	file := ir.file
	add := func(pos Pos, kind, format string, args ...any) {
		out = append(out, Diag{
			File: file, Line: pos.Line, Col: pos.Col,
			Kind: kind, Message: fmt.Sprintf(format, args...),
		})
	}

	for _, g := range ir.groups {
		first := ir.loops[g[0]]
		for _, ord := range g[1:] {
			l := ir.loops[ord]
			add(l.f.pos, "reuse",
				"inspector hashes index array(s) %s already hashed by the FORALL at line %d; one shared schedule serves both (applied at -O)",
				strings.Join(l.inds, ","), first.f.pos.Line)
		}
	}

	// Subset usage: a loop whose index arrays are a strict subset of
	// another loop's over the same data decomposition could reuse the
	// larger merged schedule. Advisory only: scattering a member through
	// the merged (superset) schedule pads unreferenced elements with +0.0
	// adds, which is not bit-identical for IEEE -0.0 accumulations, so -O
	// does not apply it.
	for _, l := range ir.loops {
		if l.kind == loopAppend || l.group >= 0 {
			continue
		}
		for _, o := range ir.loops {
			if o == l || o.kind == loopAppend || o.dataDec != l.dataDec {
				continue
			}
			if strictSubset(l.inds, o.inds) {
				add(l.f.pos, "subset",
					"index array(s) %s are a subset of %s used by the FORALL at line %d; an incremental or merged schedule could be shared",
					strings.Join(l.inds, ","), strings.Join(o.inds, ","), o.f.pos.Line)
				break
			}
		}
	}

	for _, l := range ir.loops {
		if l.hoistScope != nil {
			add(l.f.pos, "hoist",
				"index array(s) %s have no ADAPT in the DO at line %d; the inspector is loop-invariant and hoists out (applied at -O)",
				strings.Join(l.inds, ","), l.hoistScope.pos.Line)
		}
	}

	for _, run := range ir.fuseRuns {
		first := ir.loops[run[0]]
		for _, ord := range run[1:] {
			l := ir.loops[ord]
			add(l.f.pos, "fuse",
				"gather/scatter uses the same schedule as the FORALL at line %d; data motion fuses into one message per peer (applied at -O)",
				first.f.pos.Line)
		}
	}

	for _, l := range ir.loops {
		if l.kind != loopAppend {
			continue
		}
		add(l.f.pos, "fuse",
			"REDUCE(APPEND) size recomputation builds a fresh schedule every execution; destination-row counts ride the data motion instead (applied at -O)")
	}

	sort.Slice(out, func(i, j int) bool {
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		if out[i].Col != out[j].Col {
			return out[i].Col < out[j].Col
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// strictSubset reports whether sorted name list a is a strict subset of b.
func strictSubset(a, b []string) bool {
	if len(a) >= len(b) {
		return false
	}
	i := 0
	for _, x := range a {
		for i < len(b) && b[i] < x {
			i++
		}
		if i >= len(b) || b[i] != x {
			return false
		}
		i++
	}
	return true
}

// Vet returns the positioned diagnostics of the program-level analyses.
// The same IR drives InstantiateOptimized.
func (pr *Program) Vet() []Diag {
	return pr.ir.findings()
}

// VetFile compiles src (attributing positions to the given file name) and
// returns its diagnostics.
func VetFile(file, src string) ([]Diag, error) {
	pr, err := CompileFile(file, src)
	if err != nil {
		return nil, err
	}
	return pr.Vet(), nil
}
