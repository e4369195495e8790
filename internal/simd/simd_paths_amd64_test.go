//go:build amd64

package simd

import "testing"

// TestKernelsAcrossPaths re-runs the kernel equivalence tables with each
// dispatch path forced in turn — portable and, when the host has it, AVX2 —
// so a single amd64 machine exercises every code path the package ships,
// not just the one its CPU would pick. The detection global is mutated and
// restored; the package's tests run sequentially, so nothing else observes
// the intermediate states.
func TestKernelsAcrossPaths(t *testing.T) {
	saveAsm := useAsm
	defer func() { useAsm = saveAsm }()

	run := func(name string, asm bool) {
		t.Run(name, func(t *testing.T) {
			useAsm = asm
			testDot4EdgeLengths(t)
			testMatern52FromR2EdgeLengths(t)
			testMatern52ARDMatchesScalar(t)
			testAxpyEdgeLengths(t)
		})
	}
	run("portable", false)
	if saveAsm {
		run("avx2", true)
	}
}
