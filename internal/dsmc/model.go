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

// GenMolecules generates the deterministic initial molecule population.
func GenMolecules(cfg Config) []float64 {
	rng := rand.New(rand.NewSource(cfg.Seed))
	mols := make([]float64, cfg.NMols*recordWidth)
	for i := 0; i < cfg.NMols; i++ {
		m := mols[i*recordWidth:]
		m[0] = float64(i)
		m[1] = rng.Float64() * float64(cfg.NX) * cfg.InitSlabFrac
		m[2] = rng.Float64() * float64(cfg.NY)
		m[4] = cfg.Drift + cfg.Sigma*rng.NormFloat64()
		m[5] = cfg.Sigma * rng.NormFloat64()
		if cfg.NZ > 1 {
			m[3] = rng.Float64() * float64(cfg.NZ)
			m[6] = cfg.Sigma * rng.NormFloat64()
		}
	}
	return mols
}

// CellOf returns the cell index of a molecule record under cfg's grid.
// Cell ids are x-slowest, so a BLOCK distribution of cell ids yields slabs
// perpendicular to the dominant +x flow direction — the natural static
// decomposition, and the one the directional drift punishes (Table 5).
func CellOf(cfg *Config, m []float64) int {
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

// CellCenter returns the geometric centre of cell c.
func CellCenter(cfg *Config, c int) (x, y, z float64) {
	cz := c % cfg.NZ
	cy := (c / cfg.NZ) % cfg.NY
	cx := c / (cfg.NZ * cfg.NY)
	return float64(cx) + 0.5, float64(cy) + 0.5, float64(cz) + 0.5
}

// advance free-flies one molecule record for dt with periodic wrapping.
func advance(cfg *Config, m []float64, dt float64) {
	m[1] = wrap(m[1]+m[4]*dt, float64(cfg.NX))
	m[2] = wrap(m[2]+m[5]*dt, float64(cfg.NY))
	if cfg.NZ > 1 {
		m[3] = wrap(m[3]+m[6]*dt, float64(cfg.NZ))
	}
}

func wrap(v, n float64) float64 {
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
// members are sorted by molecule id, then n/2 deterministic pairs exchange
// a velocity component — an order-independent stand-in for DSMC's
// stochastic binary collisions. Returns the number of molecules processed.
func collideCell(cfg *Config, mols []float64, members []int, cellGlobal, step int) int {
	n := len(members)
	if n < 2 {
		return n
	}
	// Ids are unique, so any comparison sort yields the same order; this one
	// needs no reflection swapper and its closure stays on the stack.
	slices.SortFunc(members, func(a, b int) int { return cmp.Compare(mols[a], mols[b]) })
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

// bucketByCell returns rows resized to nRows and refilled: rows[rowOf(c)]
// lists, in storage order, the record offsets (into mols) of the molecules
// in cell c. Row storage is reused across calls.
func bucketByCell(cfg *Config, mols []float64, rows [][]int, nRows int, rowOf func(cell int) int) [][]int {
	if cap(rows) < nRows {
		rows = append(rows[:cap(rows)], make([][]int, nRows-cap(rows))...)
	}
	rows = rows[:nRows]
	for r := range rows {
		rows[r] = rows[r][:0]
	}
	for off := 0; off+recordWidth <= len(mols); off += recordWidth {
		r := rowOf(CellOf(cfg, mols[off:]))
		rows[r] = append(rows[r], off)
	}
	return rows
}

// Checksum returns an order-independent fingerprint of a molecule
// population: the sums of positions and absolute velocities.
func Checksum(mols []float64) float64 {
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
	mols := GenMolecules(cfg)
	var cells [][]int
	for step := 1; step <= cfg.Steps; step++ {
		for i := 0; i < cfg.NMols; i++ {
			advance(&cfg, mols[i*recordWidth:(i+1)*recordWidth], cfg.Dt)
		}
		cells = bucketByCell(&cfg, mols, cells, cfg.NCells(), func(c int) int { return c })
		for c := range cells {
			collideCell(&cfg, mols, cells[c], c, step)
		}
	}
	out := SortByID(mols)
	return out, Checksum(out)
}
