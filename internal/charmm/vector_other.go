//go:build !amd64

package charmm

// VectorKernels is false: the vector kernels exist on amd64 only, and the
// portable Go loops run everywhere else.
var VectorKernels = false

func walkAVX2(out *int32, rs *cellRange, nr int, ids *int32, x, y, z *float64, self int32, px, py, pz, c2 float64) int {
	panic("charmm: no vector kernels on this GOARCH")
}

func pairForceRowAVX2(p, f *[3]float64, js []int32, pos, frc *float64, strength, c2 float64, slots int) bool {
	panic("charmm: no vector kernels on this GOARCH")
}

func kernelRowAVX2(x, f *[3]float64, js []int32, xb, fb *float64, slots int) int {
	panic("charmm: no vector kernels on this GOARCH")
}
