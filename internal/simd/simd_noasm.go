//go:build !amd64

package simd

// useAsm is false off amd64; every kernel takes the portable path.
const useAsm = false

// The stubs below are never called when useAsm is false.

func dot4Asm(p, q0, q1, q2, q3 *float64, n int) (s0, s1, s2, s3 float64) {
	panic("simd: dot4Asm called without assembly support")
}

func matern52Asm(v *float64, n int, vr float64) {
	panic("simd: matern52Asm called without assembly support")
}

func matern52ARD8Asm(dst, sqd, inv2 *float64, n int, vr float64) {
	panic("simd: matern52ARD8Asm called without assembly support")
}

func axpyAsm(dst, x *float64, n int, a float64) {
	panic("simd: axpyAsm called without assembly support")
}

func scaledExpAsm(v *float64, n int, vr float64) int {
	panic("simd: scaledExpAsm called without assembly support")
}
