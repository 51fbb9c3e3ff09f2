package charmm

// VectorKernels selects the AVX2 kernels of the neighbour search (walk),
// the non-bonded force row (pairForceRow) and Table 6's row body
// (kernelRow). It is set at package init when the CPU has AVX2 and POPCNT
// and the OS saves the YMM registers, and tests set it false to run the
// portable Go loops instead. Both paths give the same bits, so it changes
// no list, force, checksum or clock. Set it only while no run is in flight.
var VectorKernels = cpuHasAVX2()

// cpuHasAVX2 reports AVX2, POPCNT and OS-saved YMM state (CPUID, XGETBV).
func cpuHasAVX2() bool

// walkAVX2 is walk's vector kernel over the nr > 0 ranges at rs, each a
// range [lo, hi) of the columns at ids, x, y and z: the qualifying ids are
// written from out on, range by range and in order within each, and their
// number is returned. A group of four is compared at once — each id > self
// as a signed int32, each ((dx·dx + dy·dy) + dz·dz) < c2 with dx = q − p, as
// scanTail does — and the ids of both tests are packed to the front of a
// 16-byte store by a PSHUFB table indexed by the 4-bit mask, which POPCNT
// then counts. A range's last one to three candidates are a group of four
// too, with the lanes past its end masked off: the loads then reach up to 3
// entries past hi, so the columns must extend walkPad entries past every
// range. A store is made at out[n] with n at most the number of candidates
// before its group, so it stays inside the room walk reserved: every
// candidate plus walkPad.
//
//go:noescape
func walkAVX2(out *int32, rs *cellRange, nr int, ids *int32, x, y, z *float64, self int32, px, py, pz, c2 float64) int

// pairForceRowAVX2 is pairForceRow's vector kernel over len(js), a positive
// multiple of 4. It first checks, in one vector pass over js, that every
// partner j is below slots (as unsigned, so a negative j fails), and returns
// false having touched nothing if one is not; slots must be at most
// min(len(pos), len(frc)) / 3 and at most MaxInt32. Then it evaluates four
// partners at once: their coordinates are loaded from slot 3j, and r2,
// s = strength·(1 − r2/c2) and s·d are computed lane-wise with the operands
// in the order pairRowTail's compiled code uses (no fused multiply-add), so
// every lane has its Go bits, NaN payloads included. The lanes are then
// applied one at a time, in partner order: the fi accumulators, held in
// registers as in pairRowTail, then the partner's three frc slots. A partner
// with r2 >= c2 or r2 == 0 is skipped, not added as zero (−0 + +0 is +0),
// and a NaN r2 takes the path it takes in Go.
//
//go:noescape
func pairForceRowAVX2(p, f *[3]float64, js []int32, pos, frc *float64, strength, c2 float64, slots int) bool

// kernelRowAVX2 is kernelRow's vector kernel over len(js), a positive
// multiple of 4: it applies the partners one at a time, in js order, and
// returns how many it applied. That is len(js), or the position of the
// first partner j not below slots (as unsigned, so a negative j is not),
// where it stops without storing fi. slots must be min(len(xb), len(fb)) /
// 3: then kernelRowTail, handed the rest of the row, panics at that partner
// with the arrays as the Go loop would have left them. For each partner,
// (y0, y1) = xb[3j:3j+2] is one 16-byte load and y2 a scalar one; y − x is
// added to the three fb slots (a two-lane load, add and store, then a
// scalar one) and x − y to the fi accumulators, three lanes of one register
// held for the whole row as in kernelRowTail and stored at its end. Each
// operation takes its operands in the order kernelRowTail's compiled code
// does — (y − x) + fb[k] and f + (x − y) — so every slot has its Go bits,
// NaN payloads and the sign of zero included.
//
//go:noescape
func kernelRowAVX2(x, f *[3]float64, js []int32, xb, fb *float64, slots int) int
