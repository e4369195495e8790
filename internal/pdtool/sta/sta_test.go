package sta

import (
	"math"
	"testing"

	"ppatuner/internal/pdtool/drv"
	"ppatuner/internal/pdtool/lib"
	"ppatuner/internal/pdtool/netlist"
	"ppatuner/internal/pdtool/place"
	"ppatuner/internal/pdtool/route"
)

type rig struct {
	nl  *netlist.Netlist
	lib *lib.Library
	pl  *place.Result
	fix *drv.Result
	rt  *route.Result
}

func buildRig(t *testing.T) *rig {
	t.Helper()
	nl, err := netlist.MAC("m", 10)
	if err != nil {
		t.Fatal(err)
	}
	l := lib.Default7nm()
	pl, err := place.Place(nl, l, place.Options{TargetUtil: 0.7, MaxBinDensity: 0.85, Iterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	fix, err := drv.Fix(nl, l, pl, drv.Limits{MaxFanout: 32, MaxCapFF: 100, MaxTransPS: 250, MaxLenUm: 300})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := route.Route(nl, pl, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{nl: nl, lib: l, pl: pl, fix: fix, rt: rt}
}

func baseOpts() Options {
	return Options{TargetPeriodPS: 900, UncertaintyPS: 40, RCFactor: 1.1, SkewPS: 10, OptPasses: 0}
}

func TestAnalyzeBasics(t *testing.T) {
	r := buildRig(t)
	res, err := Analyze(r.nl, r.lib, r.pl, r.fix, r.rt, baseOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.CriticalPathPS <= 0 {
		t.Fatal("non-positive critical path")
	}
	if res.AchievedPeriodPS <= res.CriticalPathPS {
		t.Error("achieved period must include setup and skew")
	}
	if res.SlackPS != 900-res.AchievedPeriodPS {
		t.Error("slack inconsistent with target")
	}
	// A 10-bit MAC at 7nm: the critical path should land in hundreds of ps,
	// not fs or µs.
	if res.CriticalPathPS < 100 || res.CriticalPathPS > 5000 {
		t.Errorf("critical path %g ps implausible", res.CriticalPathPS)
	}
}

func TestAnalyzeDeterministic(t *testing.T) {
	r := buildRig(t)
	a, err := Analyze(r.nl, r.lib, r.pl, r.fix, r.rt, baseOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Analyze(r.nl, r.lib, r.pl, r.fix, r.rt, baseOpts())
	if err != nil {
		t.Fatal(err)
	}
	if a.CriticalPathPS != b.CriticalPathPS {
		t.Error("STA not deterministic")
	}
}

func TestRCFactorSlowsDesign(t *testing.T) {
	r := buildRig(t)
	lo := baseOpts()
	lo.RCFactor = 1.0
	hi := baseOpts()
	hi.RCFactor = 1.3
	a, err := Analyze(r.nl, r.lib, r.pl, r.fix, r.rt, lo)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Analyze(r.nl, r.lib, r.pl, r.fix, r.rt, hi)
	if err != nil {
		t.Fatal(err)
	}
	if !(b.CriticalPathPS > a.CriticalPathPS) {
		t.Errorf("rc factor 1.3 path %g !> 1.0 path %g", b.CriticalPathPS, a.CriticalPathPS)
	}
}

func TestSkewAddsToPeriod(t *testing.T) {
	r := buildRig(t)
	lo := baseOpts()
	lo.SkewPS = 0
	hi := baseOpts()
	hi.SkewPS = 30
	a, _ := Analyze(r.nl, r.lib, r.pl, r.fix, r.rt, lo)
	b, _ := Analyze(r.nl, r.lib, r.pl, r.fix, r.rt, hi)
	if d := b.AchievedPeriodPS - a.AchievedPeriodPS; d < 29.9 || d > 30.1 {
		t.Errorf("skew delta = %g, want 30", d)
	}
}

func TestOptimizeImprovesDelay(t *testing.T) {
	r := buildRig(t)
	noOpt, err := Analyze(r.nl, r.lib, r.pl, r.fix, r.rt, baseOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Fresh copy: Optimize mutates sizes.
	r2 := buildRig(t)
	opt := baseOpts()
	opt.TargetPeriodPS = noOpt.AchievedPeriodPS * 0.7 // force pressure
	opt.OptPasses = 6
	opt.MaxSize = 8
	res, err := Optimize(r2.nl, r2.lib, r2.pl, r2.fix, r2.rt, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Upsized == 0 {
		t.Fatal("optimisation under pressure upsized nothing")
	}
	if !(res.AchievedPeriodPS < noOpt.AchievedPeriodPS) {
		t.Errorf("optimised period %g !< unoptimised %g", res.AchievedPeriodPS, noOpt.AchievedPeriodPS)
	}
}

func TestOptimizeStopsWhenMet(t *testing.T) {
	r := buildRig(t)
	opt := baseOpts()
	opt.TargetPeriodPS = 1e6 // trivially met
	opt.OptPasses = 6
	res, err := Optimize(r.nl, r.lib, r.pl, r.fix, r.rt, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Upsized != 0 {
		t.Errorf("upsized %d cells with a trivially met target", res.Upsized)
	}
}

func TestMaxAllowedDelayRelaxes(t *testing.T) {
	r1 := buildRig(t)
	base, _ := Analyze(r1.nl, r1.lib, r1.pl, r1.fix, r1.rt, baseOpts())
	target := base.AchievedPeriodPS * 0.9

	strict := buildRig(t)
	so := baseOpts()
	so.TargetPeriodPS = target
	so.OptPasses = 6
	so.MaxAllowedDelayPS = 0
	sres, err := Optimize(strict.nl, strict.lib, strict.pl, strict.fix, strict.rt, so)
	if err != nil {
		t.Fatal(err)
	}
	relaxed := buildRig(t)
	ro := so
	ro.MaxAllowedDelayPS = 1e6 // any slack accepted
	rres, err := Optimize(relaxed.nl, relaxed.lib, relaxed.pl, relaxed.fix, relaxed.rt, ro)
	if err != nil {
		t.Fatal(err)
	}
	if !(rres.Upsized <= sres.Upsized) {
		t.Errorf("relaxed allowance upsized more (%d) than strict (%d)", rres.Upsized, sres.Upsized)
	}
	if rres.Upsized != 0 {
		t.Errorf("fully relaxed allowance still upsized %d cells", rres.Upsized)
	}
}

func TestUncertaintyIncreasesEffort(t *testing.T) {
	r1 := buildRig(t)
	base, _ := Analyze(r1.nl, r1.lib, r1.pl, r1.fix, r1.rt, baseOpts())
	target := base.AchievedPeriodPS * 1.02 // just met without margin

	noMargin := buildRig(t)
	o1 := baseOpts()
	o1.TargetPeriodPS = target
	o1.UncertaintyPS = 0
	o1.OptPasses = 6
	res1, err := Optimize(noMargin.nl, noMargin.lib, noMargin.pl, noMargin.fix, noMargin.rt, o1)
	if err != nil {
		t.Fatal(err)
	}
	margin := buildRig(t)
	o2 := o1
	o2.UncertaintyPS = 150
	res2, err := Optimize(margin.nl, margin.lib, margin.pl, margin.fix, margin.rt, o2)
	if err != nil {
		t.Fatal(err)
	}
	if !(res2.Upsized > res1.Upsized) {
		t.Errorf("uncertainty margin did not increase optimisation: %d vs %d upsizes", res2.Upsized, res1.Upsized)
	}
}

func TestOptionsValidation(t *testing.T) {
	r := buildRig(t)
	bad := baseOpts()
	bad.TargetPeriodPS = 0
	if _, err := Analyze(r.nl, r.lib, r.pl, r.fix, r.rt, bad); err == nil {
		t.Error("zero target period accepted")
	}
}

// TestNetDelayBufferingLongNetHelps splits the longest net into a buffer
// chain and checks the net-delay model Analyze propagates: splitting a
// wire-RC-dominated net must not make it dramatically slower. The margin is
// generous to avoid over-fitting the model, but catches sign errors.
func TestNetDelayBufferingLongNetHelps(t *testing.T) {
	r := buildRig(t)
	best, bestLen := -1, 0.0
	for id, ln := range r.pl.NetLen {
		if ln > bestLen {
			best, bestLen = id, ln
		}
	}
	if best < 0 {
		t.Fatal("no nonzero-length nets")
	}
	relaxed := drv.Limits{MaxFanout: 1000, MaxCapFF: 1e6, MaxTransPS: 1e6, MaxLenUm: 1e6}
	split := relaxed
	split.MaxLenUm = bestLen / 3
	delay := func(lm drv.Limits) (float64, int) {
		fix, err := drv.Fix(r.nl, r.lib, r.pl, lm)
		if err != nil {
			t.Fatal(err)
		}
		opt := baseOpts()
		opt.RCFactor = 1
		e := new(engine)
		if err := e.reset(r.nl, r.lib, r.pl, fix, r.rt, opt); err != nil {
			t.Fatal(err)
		}
		e.propagate()
		return e.netDelay[best], fix.Fix[best].Stages
	}
	dU, _ := delay(relaxed)
	dB, stages := delay(split)
	if stages < 2 {
		t.Fatalf("longest net not split: %d stages", stages)
	}
	if !(dU > 0) || dB > 2*dU {
		t.Errorf("buffered delay %g ps vs unbuffered %g ps: buffering exploded", dB, dU)
	}
	t.Logf("net %d (%.1f µm): %.2f ps unbuffered, %.2f ps in %d stages", best, bestLen, dU, dB, stages)
}

func TestHoldAnalysis(t *testing.T) {
	r := buildRig(t)
	res, err := Analyze(r.nl, r.lib, r.pl, r.fix, r.rt, baseOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !(res.MinPathPS > 0) {
		t.Fatalf("min path = %g, want positive", res.MinPathPS)
	}
	if !(res.MinPathPS <= res.CriticalPathPS) {
		t.Errorf("min path %g > critical path %g", res.MinPathPS, res.CriticalPathPS)
	}
	// Hold slack worsens with skew.
	hi := baseOpts()
	hi.SkewPS = 100
	res2, err := Analyze(r.nl, r.lib, r.pl, r.fix, r.rt, hi)
	if err != nil {
		t.Fatal(err)
	}
	if !(res2.HoldSlackPS < res.HoldSlackPS) {
		t.Errorf("more skew did not reduce hold slack: %g vs %g", res2.HoldSlackPS, res.HoldSlackPS)
	}
	// A register-to-register design at 7nm with a clk-to-q of 25ps should
	// not be hold-critical at 10ps skew.
	if res.HoldSlackPS < 0 {
		t.Errorf("hold slack %g negative at nominal skew", res.HoldSlackPS)
	}
}

// TestIncrementalPropagateMatchesFull pins the incremental arrival update:
// after every sizing pass, the arrivals, critical inputs and net delays it
// leaves are bit-identical to a full propagate over the same sizes.
func TestIncrementalPropagateMatchesFull(t *testing.T) {
	for _, width := range []int{10, 16} {
		r := buildRig(t)
		if width != 10 {
			nl, err := netlist.MAC("m", width)
			if err != nil {
				t.Fatal(err)
			}
			r.nl = nl
			if r.pl, err = place.Place(nl, r.lib, place.Options{TargetUtil: 0.7, MaxBinDensity: 0.85, Iterations: 6}); err != nil {
				t.Fatal(err)
			}
			if r.fix, err = drv.Fix(nl, r.lib, r.pl, drv.Limits{MaxFanout: 32, MaxCapFF: 100, MaxTransPS: 250, MaxLenUm: 300}); err != nil {
				t.Fatal(err)
			}
			if r.rt, err = route.Route(nl, r.pl, route.Options{}); err != nil {
				t.Fatal(err)
			}
		}
		opt := baseOpts()
		opt.MaxSize = 8
		inc := new(engine)
		if err := inc.reset(r.nl, r.lib, r.pl, r.fix, r.rt, opt); err != nil {
			t.Fatal(err)
		}
		inc.propagate()
		passes := 0
		for ; passes < 12 && inc.upsizeCritical() > 0; passes++ {
			inc.propagate()
			full := new(engine)
			if err := full.reset(r.nl, r.lib, r.pl, r.fix, r.rt, opt); err != nil {
				t.Fatal(err)
			}
			full.propagate()
			for n := range full.netArrive {
				if math.Float64bits(inc.netArrive[n]) != math.Float64bits(full.netArrive[n]) ||
					math.Float64bits(inc.netDelay[n]) != math.Float64bits(full.netDelay[n]) {
					t.Fatalf("width %d pass %d net %d: incremental arrival %v delay %v, full %v %v",
						width, passes, n, inc.netArrive[n], inc.netDelay[n], full.netArrive[n], full.netDelay[n])
				}
			}
			for c := range full.argmax {
				if inc.argmax[c] != full.argmax[c] {
					t.Fatalf("width %d pass %d cell %d: incremental critical input %d, full %d", width, passes, c, inc.argmax[c], full.argmax[c])
				}
			}
		}
		if passes < 2 {
			t.Fatalf("width %d: only %d sizing passes ran; the check needs several", width, passes)
		}
	}
}
