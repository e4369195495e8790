package place

import (
	"math"
	"testing"

	"ppatuner/internal/pdtool/lib"
	"ppatuner/internal/pdtool/netlist"
)

func macNL(t *testing.T, width int) *netlist.Netlist {
	t.Helper()
	nl, err := netlist.MAC("m", width)
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

func defaultOpts() Options {
	return Options{TargetUtil: 0.7, MaxBinDensity: 0.8, Iterations: 8}
}

func TestPlaceBasics(t *testing.T) {
	nl := macNL(t, 8)
	l := lib.Default7nm()
	res, err := Place(nl, l, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.X) != len(nl.Cells) || len(res.Y) != len(nl.Cells) {
		t.Fatalf("coordinate count mismatch")
	}
	for ci := range res.X {
		if res.X[ci] < 0 || res.X[ci] > res.CoreW || res.Y[ci] < 0 || res.Y[ci] > res.CoreH {
			t.Fatalf("cell %d at (%g, %g) outside core %gx%g", ci, res.X[ci], res.Y[ci], res.CoreW, res.CoreH)
		}
	}
	if res.HPWL <= 0 {
		t.Error("HPWL not positive")
	}
	// Core area must honour the utilisation target.
	wantArea := nl.TotalArea(l) / 0.7
	if math.Abs(res.CoreW*res.CoreH-wantArea) > 1e-6*wantArea {
		t.Errorf("core area = %g, want %g", res.CoreW*res.CoreH, wantArea)
	}
}

func TestPlaceDeterministic(t *testing.T) {
	nl := macNL(t, 8)
	l := lib.Default7nm()
	a, err := Place(nl, l, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Place(nl, l, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	for ci := range a.X {
		if a.X[ci] != b.X[ci] || a.Y[ci] != b.Y[ci] {
			t.Fatalf("placement not deterministic at cell %d", ci)
		}
	}
}

func TestPlaceRefinementReducesHPWL(t *testing.T) {
	nl := macNL(t, 12)
	l := lib.Default7nm()
	coarse, err := Place(nl, l, Options{TargetUtil: 0.7, MaxBinDensity: 0.8, Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := Place(nl, l, Options{TargetUtil: 0.7, MaxBinDensity: 0.8, Iterations: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !(fine.HPWL < coarse.HPWL) {
		t.Errorf("more iterations did not reduce HPWL: %g vs %g", fine.HPWL, coarse.HPWL)
	}
}

func TestPlaceUtilizationDrivesArea(t *testing.T) {
	nl := macNL(t, 8)
	l := lib.Default7nm()
	dense, err := Place(nl, l, Options{TargetUtil: 0.95, MaxBinDensity: 1.0, Iterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := Place(nl, l, Options{TargetUtil: 0.5, MaxBinDensity: 1.0, Iterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !(dense.CoreW*dense.CoreH < sparse.CoreW*sparse.CoreH) {
		t.Error("higher utilisation did not shrink the die")
	}
}

func TestPlaceUniformDensitySpreads(t *testing.T) {
	nl := macNL(t, 12)
	l := lib.Default7nm()
	clustered, err := Place(nl, l, Options{TargetUtil: 0.6, MaxBinDensity: 1.0, Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := Place(nl, l, Options{TargetUtil: 0.6, MaxBinDensity: 1.0, UniformDensity: true, Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Peak bin utilisation must drop under uniform spreading.
	peak := func(r *Result) float64 {
		m := 0.0
		for _, u := range r.BinUtil {
			if u > m {
				m = u
			}
		}
		return m
	}
	if !(peak(uniform) < peak(clustered)) {
		t.Errorf("uniform peak %g !< clustered peak %g", peak(uniform), peak(clustered))
	}
}

func TestPlaceDensityCapRespectedApproximately(t *testing.T) {
	nl := macNL(t, 12)
	l := lib.Default7nm()
	res, err := Place(nl, l, Options{TargetUtil: 0.55, MaxBinDensity: 0.7, Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Overflow is the fraction of cell area above the cap; spreading should
	// keep it small when the die has slack (util 0.55 < cap 0.7).
	if res.Overflow > 0.10 {
		t.Errorf("overflow = %g, want <= 0.10", res.Overflow)
	}
}

func TestPlaceTimingWeightChangesResult(t *testing.T) {
	nl := macNL(t, 10)
	l := lib.Default7nm()
	a, err := Place(nl, l, Options{TargetUtil: 0.7, MaxBinDensity: 0.8, Iterations: 6, TimingWeight: 0})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Place(nl, l, Options{TargetUtil: 0.7, MaxBinDensity: 0.8, Iterations: 6, TimingWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	diff := 0.0
	for ci := range a.X {
		diff += math.Abs(a.X[ci]-b.X[ci]) + math.Abs(a.Y[ci]-b.Y[ci])
	}
	if diff == 0 {
		t.Error("timing weight had no effect on placement")
	}
}

func TestPlaceErrors(t *testing.T) {
	nl := macNL(t, 4)
	l := lib.Default7nm()
	if _, err := Place(nl, l, Options{TargetUtil: 0, MaxBinDensity: 0.8}); err == nil {
		t.Error("TargetUtil 0 accepted")
	}
	if _, err := Place(nl, l, Options{TargetUtil: 1.5, MaxBinDensity: 0.8}); err == nil {
		t.Error("TargetUtil > 1 accepted")
	}
	if _, err := Place(nl, l, Options{TargetUtil: 0.7, MaxBinDensity: 0}); err == nil {
		t.Error("MaxBinDensity 0 accepted")
	}
	empty := &netlist.Netlist{Name: "empty"}
	if _, err := Place(empty, l, defaultOpts()); err == nil {
		t.Error("empty netlist accepted")
	}
}

func TestBinIndexing(t *testing.T) {
	res := &Result{CoreW: 100, CoreH: 100, BinsX: 10, BinsY: 10}
	if b := res.Bin(5, 5); b != 0 {
		t.Errorf("Bin(5,5) = %d, want 0", b)
	}
	if b := res.Bin(95, 95); b != 99 {
		t.Errorf("Bin(95,95) = %d, want 99", b)
	}
	// Out-of-range coordinates clamp.
	if b := res.Bin(-5, 500); b != 90 {
		t.Errorf("Bin(-5,500) = %d, want 90", b)
	}
}

func TestNetLengthMatchesHPWLSum(t *testing.T) {
	nl := macNL(t, 6)
	l := lib.Default7nm()
	res, err := Place(nl, l, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NetLen) != len(nl.Nets) {
		t.Fatalf("%d net lengths for %d nets", len(res.NetLen), len(nl.Nets))
	}
	var sum float64
	for _, ln := range res.NetLen {
		sum += ln
	}
	if math.Abs(sum-res.HPWL) > 1e-9*res.HPWL {
		t.Errorf("sum of NetLen %g != HPWL %g", sum, res.HPWL)
	}
}
