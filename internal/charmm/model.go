package charmm

import (
	"math"
	"math/rand"
)

// initState is the deterministic initial condition shared by the sequential
// reference and every parallel rank. Atoms are grouped into 3-atom
// "molecules" (one centre, two satellites) connected by harmonic bonds.
type initState struct {
	pos []float64 // 3*NAtoms, interleaved x,y,z
	vel []float64 // 3*NAtoms
	// Bonds: BondI[k]-BondJ[k] with rest length BondLen[k].
	bondI, bondJ []int32
	bondLen      []float64
}

// genInitState generates the initial condition for cfg. It is a pure
// function of the configuration, so every rank can generate it identically.
// The random stream draws the positions (genPositions) and then the
// velocities; the bonds are computed from the positions and draw nothing.
func genInitState(cfg Config) *initState {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.NAtoms
	st := &initState{pos: genPositions(rng, cfg)}
	// Each molecule bonds its centre to its satellites.
	for base := 0; base < n; base += 3 {
		for j := base + 1; j < min(base+3, n); j++ {
			st.bondI = append(st.bondI, int32(base))
			st.bondJ = append(st.bondJ, int32(j))
			st.bondLen = append(st.bondLen, dist3(st.pos[3*base:3*base+3], st.pos[3*j:3*j+3]))
		}
	}
	st.vel = make([]float64, 3*n)
	for i := range st.vel {
		st.vel[i] = 0.2 * (float64(rng.Float64()) - 0.5)
	}
	return st
}

// initPositions is genInitState(cfg).pos without the velocities and bonds:
// the same positions, bit for bit, from the same stream.
func initPositions(cfg Config) []float64 {
	return genPositions(rand.New(rand.NewSource(cfg.Seed)), cfg)
}

// genPositions draws the atom positions of cfg's initial condition from
// rng: molecules of three consecutive atoms, the centre at a uniform point
// and the satellites offset by ~0.3 units. rand's Float64 is a product once
// inlined, so its result is converted before the subtraction: like every
// product here, it is rounded on its own on every GOARCH (see
// costmodel.MsgCost).
func genPositions(rng *rand.Rand, cfg Config) []float64 {
	n := cfg.NAtoms
	pos := make([]float64, 3*n)
	for base := 0; base < n; base += 3 {
		var c [3]float64
		for d := 0; d < 3; d++ {
			c[d] = float64(0.05*cfg.box[d]) + float64(0.9*cfg.box[d]*rng.Float64())
		}
		for a := 0; a < min(3, n-base); a++ {
			for d := 0; d < 3; d++ {
				off := 0.0
				if a > 0 {
					off = 0.3 * (float64(rng.Float64()) - 0.5)
				}
				pos[3*(base+a)+d] = clamp(c[d]+off, 0, cfg.box[d])
			}
		}
	}
	return pos
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func dist3(a, b []float64) float64 {
	dx, dy, dz := a[0]-b[0], a[1]-b[1], a[2]-b[2]
	return math.Sqrt(float64(dx*dx) + float64(dy*dy) + float64(dz*dz))
}

// pairForceRow accumulates the non-bonded forces of one row of the list —
// atom i against the partners js (slot indices into pos and frc, 3 values
// per slot, none of them i's own) — into fi and the partners' frc slots: a
// smooth repulsive force that vanishes at the cutoff. It is the inner loop
// of the hand-coded executor and the row body of the compiled one. pos and
// frc must not overlap.
//
// With VectorKernels set, pairForceRowAVX2 handles the partners four at a
// time and pairRowTail the last len(js) % 4; without, pairRowTail handles
// the whole row. The two give the same bits: see pairForceRowAVX2. A row
// with a partner whose slot lies outside pos or frc is left to pairRowTail,
// whose bounds checks panic at that partner, as they do without the vector
// kernel. Arithmetic cost: pairFlops per partner.
func pairForceRow(pi, fi []float64, js []int32, pos, frc []float64, cutoff2 float64) {
	p, f := (*[3]float64)(pi), (*[3]float64)(fi)
	if VectorKernels && len(js) >= 4 {
		k := len(js) &^ 3
		slots := min(min(len(pos), len(frc))/3, math.MaxInt32)
		if pairForceRowAVX2(p, f, js[:k], &pos[0], &frc[0], pairStrength, cutoff2, slots) {
			js = js[k:]
		}
	}
	pairRowTail(p, f, js, pos, frc, cutoff2)
}

// pairRowTail is pairForceRow's portable loop. pi and the fi accumulators
// stay in registers across the row, which adds to fi in the same order as
// pairForce pair by pair would, and partner slots are indexed directly at
// k = 3j, as in kernelRowTail and for the same reason. Each product is
// rounded by its explicit conversion before it is added, so no GOARCH fuses
// the two.
func pairRowTail(p, f *[3]float64, js []int32, pos, frc []float64, cutoff2 float64) {
	px, py, pz := p[0], p[1], p[2]
	fx, fy, fz := f[0], f[1], f[2]
	for _, j := range js {
		k := 3 * int(j)
		dx, dy, dz := px-pos[k], py-pos[k+1], pz-pos[k+2]
		r2 := float64(dx*dx) + float64(dy*dy) + float64(dz*dz)
		if r2 >= cutoff2 || r2 == 0 {
			continue
		}
		s := pairStrength * (1 - r2/cutoff2)
		fx += float64(s * dx)
		fy += float64(s * dy)
		fz += float64(s * dz)
		frc[k] -= float64(s * dx)
		frc[k+1] -= float64(s * dy)
		frc[k+2] -= float64(s * dz)
	}
	f[0], f[1], f[2] = fx, fy, fz
}

// pairForce is pairForceRow for a single pair, written independently: the
// sequential Reference computes with it, so the parallel executors are held
// to an oracle that shares no code with them.
func pairForce(pi, pj, fi, fj []float64, cutoff2 float64) {
	dx, dy, dz := pi[0]-pj[0], pi[1]-pj[1], pi[2]-pj[2]
	r2 := float64(dx*dx) + float64(dy*dy) + float64(dz*dz)
	if r2 >= cutoff2 || r2 == 0 {
		return
	}
	s := pairStrength * (1 - r2/cutoff2)
	fi[0] += float64(s * dx)
	fi[1] += float64(s * dy)
	fi[2] += float64(s * dz)
	fj[0] -= float64(s * dx)
	fj[1] -= float64(s * dy)
	fj[2] -= float64(s * dz)
}

// bondForce accumulates the harmonic bond force for the pair with rest
// length l. Arithmetic cost: bondFlops.
func bondForce(pi, pj, fi, fj []float64, l float64) {
	dx, dy, dz := pi[0]-pj[0], pi[1]-pj[1], pi[2]-pj[2]
	r := math.Sqrt(float64(dx*dx) + float64(dy*dy) + float64(dz*dz))
	if r == 0 {
		return
	}
	s := -bondK * (r - l) / r
	fi[0] += float64(s * dx)
	fi[1] += float64(s * dy)
	fi[2] += float64(s * dz)
	fj[0] -= float64(s * dx)
	fj[1] -= float64(s * dy)
	fj[2] -= float64(s * dz)
}

// Modeled arithmetic operation counts, used for virtual-time accounting.
const (
	pairFlops      = 14
	bondFlops      = 18
	integrateFlops = 12
	searchMemOps   = 6 // per candidate examined during list building
)

// integrate advances one atom: damped velocity update plus reflecting
// walls.
func integrate(pos, vel, frc []float64, box *[3]float64, dt float64) {
	for d := 0; d < 3; d++ {
		vel[d] = float64(vel[d]*velDamping) + float64(frc[d]*dt)
		pos[d] += float64(vel[d] * dt)
		if pos[d] < 0 {
			pos[d] = -pos[d]
			vel[d] = -vel[d]
		}
		if pos[d] > box[d] {
			pos[d] = 2*box[d] - pos[d]
			vel[d] = -vel[d]
		}
	}
}

// Reference runs the whole simulation sequentially and returns the final
// positions and a checksum (the mean absolute coordinate). It is the
// correctness oracle for the parallel implementation.
func Reference(cfg Config) (pos []float64, checksum float64) {
	st := genInitState(cfg)
	pos = st.pos
	vel := st.vel
	n := cfg.NAtoms
	c2 := cfg.Cutoff * cfg.Cutoff
	var nb nbSearch
	ptr, jnb := nb.buildSeq(pos, n, cfg)
	frc := make([]float64, 3*n)
	for step := 1; step <= cfg.Steps; step++ {
		if step%cfg.NBEvery == 0 {
			nb.retire(ptr, jnb)
			ptr, jnb = nb.buildSeq(pos, n, cfg)
		}
		for i := range frc {
			frc[i] = 0
		}
		for k := range st.bondI {
			i, j := st.bondI[k], st.bondJ[k]
			bondForce(pos[3*i:3*i+3], pos[3*j:3*j+3], frc[3*i:3*i+3], frc[3*j:3*j+3], st.bondLen[k])
		}
		for i := 0; i < n; i++ {
			for _, j := range jnb[ptr[i]:ptr[i+1]] {
				pairForce(pos[3*i:3*i+3], pos[3*j:3*j+3], frc[3*i:3*i+3], frc[3*j:3*j+3], c2)
			}
		}
		for i := 0; i < n; i++ {
			integrate(pos[3*i:3*i+3], vel[3*i:3*i+3], frc[3*i:3*i+3], &cfg.box, cfg.Dt)
		}
	}
	return pos, meanAbs(pos)
}

func meanAbs(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += math.Abs(x)
	}
	return s / float64(len(xs))
}
