package charmm

import (
	"math"
	"math/rand"
)

// InitState is the deterministic initial condition shared by the sequential
// reference and every parallel rank. Atoms are grouped into 3-atom
// "molecules" (one centre, two satellites) connected by harmonic bonds.
type InitState struct {
	Pos []float64 // 3*NAtoms, interleaved x,y,z
	Vel []float64 // 3*NAtoms
	// Bonds: BondI[k]-BondJ[k] with rest length BondLen[k].
	BondI, BondJ []int32
	BondLen      []float64
}

// GenInitState generates the initial condition for cfg. It is a pure
// function of the configuration, so every rank can generate it identically.
func GenInitState(cfg Config) *InitState {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.NAtoms
	st := &InitState{
		Pos: make([]float64, 3*n),
		Vel: make([]float64, 3*n),
	}
	// Molecules of three consecutive atoms: centre at a uniform point,
	// satellites offset by ~0.3 units.
	for base := 0; base < n; base += 3 {
		var c [3]float64
		for d := 0; d < 3; d++ {
			c[d] = 0.05*cfg.Box[d] + 0.9*cfg.Box[d]*rng.Float64()
		}
		size := 3
		if base+size > n {
			size = n - base
		}
		for a := 0; a < size; a++ {
			for d := 0; d < 3; d++ {
				off := 0.0
				if a > 0 {
					off = 0.3 * (rng.Float64() - 0.5)
				}
				st.Pos[3*(base+a)+d] = clamp(c[d]+off, 0, cfg.Box[d])
			}
		}
		for a := 1; a < size; a++ {
			i, j := int32(base), int32(base+a)
			st.BondI = append(st.BondI, i)
			st.BondJ = append(st.BondJ, j)
			st.BondLen = append(st.BondLen, dist3(st.Pos[3*i:3*i+3], st.Pos[3*j:3*j+3]))
		}
	}
	for i := range st.Vel {
		st.Vel[i] = 0.2 * (rng.Float64() - 0.5)
	}
	return st
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
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// pairForceRow accumulates the non-bonded forces of one row of the list —
// atom i against the partners js (slot indices into pos and frc, 3 values
// per slot, none of them i's own) — into fi and the partners' frc slots: a
// smooth repulsive force that vanishes at the cutoff. It is the inner loop
// of the hand-coded executor and the row body of the compiled one, in
// fixed-width form: pi and the fi accumulators stay in registers across the
// row, which adds to fi in the same order as pairForce pair by pair would.
// Arithmetic cost: pairFlops per partner.
func pairForceRow(pi, fi []float64, js []int32, pos, frc []float64, cutoff2 float64) {
	p, f := (*[3]float64)(pi), (*[3]float64)(fi)
	px, py, pz := p[0], p[1], p[2]
	fx, fy, fz := f[0], f[1], f[2]
	for _, j := range js {
		pj, fj := (*[3]float64)(pos[3*j:]), (*[3]float64)(frc[3*j:])
		dx, dy, dz := px-pj[0], py-pj[1], pz-pj[2]
		r2 := dx*dx + dy*dy + dz*dz
		if r2 >= cutoff2 || r2 == 0 {
			continue
		}
		s := pairStrength * (1 - r2/cutoff2)
		fx += s * dx
		fy += s * dy
		fz += s * dz
		fj[0] -= s * dx
		fj[1] -= s * dy
		fj[2] -= s * dz
	}
	f[0], f[1], f[2] = fx, fy, fz
}

// pairForce is pairForceRow for a single pair, written independently: the
// sequential Reference computes with it, so the parallel executors are held
// to an oracle that shares no code with them.
func pairForce(pi, pj, fi, fj []float64, cutoff2 float64) {
	dx, dy, dz := pi[0]-pj[0], pi[1]-pj[1], pi[2]-pj[2]
	r2 := dx*dx + dy*dy + dz*dz
	if r2 >= cutoff2 || r2 == 0 {
		return
	}
	s := pairStrength * (1 - r2/cutoff2)
	fi[0] += s * dx
	fi[1] += s * dy
	fi[2] += s * dz
	fj[0] -= s * dx
	fj[1] -= s * dy
	fj[2] -= s * dz
}

// bondForce accumulates the harmonic bond force for the pair with rest
// length l. Arithmetic cost: bondFlops.
func bondForce(pi, pj, fi, fj []float64, l float64) {
	dx, dy, dz := pi[0]-pj[0], pi[1]-pj[1], pi[2]-pj[2]
	r := math.Sqrt(dx*dx + dy*dy + dz*dz)
	if r == 0 {
		return
	}
	s := -bondK * (r - l) / r
	fi[0] += s * dx
	fi[1] += s * dy
	fi[2] += s * dz
	fj[0] -= s * dx
	fj[1] -= s * dy
	fj[2] -= s * dz
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
		vel[d] = vel[d]*velDamping + frc[d]*dt
		pos[d] += vel[d] * dt
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
	st := GenInitState(cfg)
	pos = st.Pos
	vel := st.Vel
	n := cfg.NAtoms
	c2 := cfg.Cutoff * cfg.Cutoff
	var nb nbSearch
	ptr, jnb := nb.buildSeq(pos, n, cfg)
	frc := make([]float64, 3*n)
	for step := 1; step <= cfg.Steps; step++ {
		if step%cfg.NBEvery == 0 {
			ptr, jnb = nb.buildSeq(pos, n, cfg)
		}
		for i := range frc {
			frc[i] = 0
		}
		for k := range st.BondI {
			i, j := st.BondI[k], st.BondJ[k]
			bondForce(pos[3*i:3*i+3], pos[3*j:3*j+3], frc[3*i:3*i+3], frc[3*j:3*j+3], st.BondLen[k])
		}
		for i := 0; i < n; i++ {
			for _, j := range jnb[ptr[i]:ptr[i+1]] {
				pairForce(pos[3*i:3*i+3], pos[3*j:3*j+3], frc[3*i:3*i+3], frc[3*j:3*j+3], c2)
			}
		}
		for i := 0; i < n; i++ {
			integrate(pos[3*i:3*i+3], vel[3*i:3*i+3], frc[3*i:3*i+3], &cfg.Box, cfg.Dt)
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
