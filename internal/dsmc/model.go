package dsmc

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
)

// Molecule records are stored as flat float64 slices, recordWidth values
// per molecule: id, x, y, z, vx, vy, vz (z and vz zero in 2-D). Molecule
// ids are permanent and unique; they make the collision phase independent
// of storage order.

// genMolecules generates the deterministic initial molecule population.
func genMolecules(cfg Config) []float64 {
	rng := rand.New(rand.NewSource(cfg.Seed))
	mols := make([]float64, cfg.NMols*recordWidth)
	for i := 0; i < cfg.NMols; i++ {
		m := mols[i*recordWidth:]
		m[0] = float64(i)
		m[1] = rng.Float64() * float64(cfg.NX) * cfg.InitSlabFrac
		m[2] = rng.Float64() * float64(cfg.NY)
		m[4] = cfg.Drift + float64(cfg.Sigma*rng.NormFloat64())
		m[5] = cfg.Sigma * rng.NormFloat64()
		if cfg.NZ > 1 {
			m[3] = rng.Float64() * float64(cfg.NZ)
			m[6] = cfg.Sigma * rng.NormFloat64()
		}
	}
	return mols
}

// cellOf returns the cell index of a molecule record under cfg's grid.
// Cell ids are x-slowest, so a BLOCK distribution of cell ids yields slabs
// perpendicular to the dominant +x flow direction — the natural static
// decomposition, and the one the directional drift punishes (Table 5).
func cellOf(cfg *Config, m []float64) int {
	cx := clampInt(int(m[1]), cfg.NX)
	cy := clampInt(int(m[2]), cfg.NY)
	cz := clampInt(int(m[3]), cfg.NZ)
	return (cx*cfg.NY+cy)*cfg.NZ + cz
}

func clampInt(v, n int) int {
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}

// cellCenter returns the geometric centre of cell c.
func cellCenter(cfg *Config, c int) (x, y, z float64) {
	cz := c % cfg.NZ
	cy := (c / cfg.NZ) % cfg.NY
	cx := c / (cfg.NZ * cfg.NY)
	return float64(cx) + 0.5, float64(cy) + 0.5, float64(cz) + 0.5
}

// advance free-flies one molecule record for dt with periodic wrapping.
// Each product is rounded by its explicit conversion before the addition,
// so no GOARCH fuses the two (see costmodel.MsgCost).
func advance(cfg *Config, m []float64, dt float64) {
	m[1] = wrap(m[1]+float64(m[4]*dt), float64(cfg.NX))
	m[2] = wrap(m[2]+float64(m[5]*dt), float64(cfg.NY))
	if cfg.NZ > 1 {
		m[3] = wrap(m[3]+float64(m[6]*dt), float64(cfg.NZ))
	}
}

// wrap maps v periodically into [0, n): math.Mod, then +n when the remainder
// is negative. The three cases a free flight produces skip math.Mod and
// return exactly what that formula does: v itself for 0 <= v < n (-0 stays
// -0); v-n for n <= v < 2n, which Sterbenz's lemma makes exact; and v+n for
// -n < v < 0, where math.Mod returns v unchanged and the formula adds n.
// Everything else (NaN, ±Inf, larger magnitudes) takes the formula.
func wrap(v, n float64) float64 {
	if v >= 0 {
		if v < n {
			return v
		}
		if v < 2*n {
			return v - n
		}
	} else if v > -n {
		return v + n
	}
	v = math.Mod(v, n)
	if v < 0 {
		v += n
	}
	return v
}

// splitmix64 is the deterministic per-cell collision RNG: no allocation,
// identical on every processor.
type splitmix64 uint64

func newCellRng(seed int64, cell, step int) splitmix64 {
	return splitmix64(uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(cell)*0xBF58476D1CE4E5B9 ^ uint64(step)*0x94D049BB133111EB)
}

func (s *splitmix64) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// collideCell performs the collision phase for one cell: members are the
// record offsets (into mols) of the molecules currently in the cell. The
// members are put in molecule-id order (orderByID), then n/2 deterministic
// pairs exchange a velocity component — an order-independent stand-in for
// DSMC's stochastic binary collisions. Returns the number of molecules
// processed.
func collideCell(cfg *Config, mols []float64, members []int, cellGlobal, step int) int {
	n := len(members)
	if n < 2 {
		return n
	}
	orderByID(mols, members)
	rng := newCellRng(cfg.Seed, cellGlobal, step)
	pairs := n / 2
	for k := 0; k < pairs; k++ {
		a := members[int(rng.next()%uint64(n))]
		b := members[int(rng.next()%uint64(n))]
		if a == b {
			continue
		}
		axis := 4 + int(rng.next()%3)
		if cfg.NZ == 1 && axis == 6 {
			axis = 4
		}
		// Exchange the chosen velocity component (momentum-conserving).
		mols[a+axis], mols[b+axis] = mols[b+axis], mols[a+axis]
	}
	return n
}

// insertionSortMax is the largest cell orderByID sorts by insertion; above
// it the quadratic sort would lose to slices.SortFunc's O(n log n). Cells
// hold about 4 to 8 molecules at the benchmark densities.
const insertionSortMax = 32

// orderByID sorts members, record offsets into mols, by molecule id. Ids are
// unique and finite, so every correct sort gives the same order. A cell of
// at most insertionSortMax members takes an insertion sort on the float64
// id, which on a handful of members costs far less than pdqsort plus
// cmp.Compare's NaN handling; a larger cell keeps slices.SortFunc.
func orderByID(mols []float64, members []int) {
	if len(members) > insertionSortMax {
		slices.SortFunc(members, func(a, b int) int { return cmp.Compare(mols[a], mols[b]) })
		return
	}
	for i := 1; i < len(members); i++ {
		m := members[i]
		id := mols[m]
		j := i
		for ; j > 0 && mols[members[j-1]] > id; j-- {
			members[j] = members[j-1]
		}
		members[j] = m
	}
}

// bucketByCell returns rows resized to nRows and refilled: rows[rowOf(c)]
// lists, in storage order, the record offsets (into mols) of the molecules
// in cell c. Row storage is reused across calls.
func bucketByCell(cfg *Config, mols []float64, rows [][]int, nRows int, rowOf func(cell int) int) [][]int {
	rows = resetRows(rows, nRows)
	for off := 0; off+recordWidth <= len(mols); off += recordWidth {
		r := rowOf(cellOf(cfg, mols[off:]))
		rows[r] = append(rows[r], off)
	}
	return rows
}

// resetRows returns rows resized to nRows empty rows, reusing the storage of
// rows and of each row.
func resetRows(rows [][]int, nRows int) [][]int {
	rows = resized(&rows, nRows)
	for r := range rows {
		rows[r] = rows[r][:0]
	}
	return rows
}

// checksum returns an order-independent fingerprint of a molecule
// population: the sums of positions and absolute velocities.
func checksum(mols []float64) float64 {
	var s float64
	for i := 0; i+recordWidth <= len(mols); i += recordWidth {
		s += mols[i+1] + mols[i+2] + mols[i+3] +
			math.Abs(mols[i+4]) + math.Abs(mols[i+5]) + math.Abs(mols[i+6])
	}
	return s
}

// Reference runs the simulation sequentially and returns the final
// molecule population (in id order) and its checksum. It is the
// correctness oracle for the parallel implementations.
func Reference(cfg Config) ([]float64, float64) {
	cfg.mustValidate()
	mols := genMolecules(cfg)
	var cells [][]int
	for step := 1; step <= cfg.Steps; step++ {
		for i := 0; i < cfg.NMols; i++ {
			advance(&cfg, mols[i*recordWidth:(i+1)*recordWidth], cfg.dt)
		}
		cells = bucketByCell(&cfg, mols, cells, cfg.NCells(), func(c int) int { return c })
		for c := range cells {
			collideCell(&cfg, mols, cells[c], c, step)
		}
	}
	out := SortByID(mols)
	return out, checksum(out)
}
