package pdtool

import (
	"math/rand"
	"testing"

	"ppatuner/internal/param"
	"ppatuner/internal/sample"
)

func midConfig(s *param.Space) param.Config {
	u := make([]float64, s.Dim())
	for i := range u {
		u[i] = 0.5
	}
	return s.MustConfig(u)
}

func TestRunSmallMAC(t *testing.T) {
	q, rep, err := Run(SmallMAC(), midConfig(param.Target1Space()))
	if err != nil {
		t.Fatal(err)
	}
	if q.PowerMW <= 0 || q.DelayNS <= 0 || q.AreaUm2 <= 0 {
		t.Fatalf("degenerate QoR: %+v", q)
	}
	// 7nm-class plausibility windows.
	if q.DelayNS < 0.3 || q.DelayNS > 5 {
		t.Errorf("delay %g ns implausible", q.DelayNS)
	}
	if q.PowerMW < 0.05 || q.PowerMW > 50 {
		t.Errorf("power %g mW implausible", q.PowerMW)
	}
	if rep.Timing == nil || rep.Place == nil || rep.Route == nil || rep.CTS == nil || rep.DRV == nil {
		t.Error("report missing stages")
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := midConfig(param.Target1Space())
	a, _, err := Run(SmallMAC(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Run(SmallMAC(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("flow not deterministic: %+v vs %+v", a, b)
	}
}

func TestRunDoesNotMutateDesign(t *testing.T) {
	d := SmallMAC()
	before := d.NL.TotalArea(d.Lib)
	// An aggressive config that forces upsizing.
	s := param.Target1Space()
	u := make([]float64, s.Dim())
	for i := range u {
		u[i] = 0.5
	}
	u[s.Index("freq")] = 1 // 1300 MHz
	if _, _, err := Run(d, s.MustConfig(u)); err != nil {
		t.Fatal(err)
	}
	if after := d.NL.TotalArea(d.Lib); after != before {
		t.Fatalf("Run mutated the shared design: area %g -> %g", before, after)
	}
}

func TestFrequencyTradeoff(t *testing.T) {
	s := param.Target1Space()
	u := make([]float64, s.Dim())
	for i := range u {
		u[i] = 0.5
	}
	lo := append([]float64(nil), u...)
	lo[s.Index("freq")] = 0 // 1000 MHz
	hi := append([]float64(nil), u...)
	hi[s.Index("freq")] = 1 // 1300 MHz
	qLo, _, err := Run(SmallMAC(), s.MustConfig(lo))
	if err != nil {
		t.Fatal(err)
	}
	qHi, _, err := Run(SmallMAC(), s.MustConfig(hi))
	if err != nil {
		t.Fatal(err)
	}
	if !(qHi.PowerMW > qLo.PowerMW) {
		t.Errorf("higher freq power %g !> lower %g", qHi.PowerMW, qLo.PowerMW)
	}
	if !(qHi.DelayNS < qLo.DelayNS) {
		t.Errorf("higher freq delay %g !< lower %g", qHi.DelayNS, qLo.DelayNS)
	}
}

func TestUtilizationAreaTradeoff(t *testing.T) {
	s := param.Target1Space()
	u := make([]float64, s.Dim())
	for i := range u {
		u[i] = 0.5
	}
	lo := append([]float64(nil), u...)
	lo[s.Index("max_Density")] = 0
	hi := append([]float64(nil), u...)
	hi[s.Index("max_Density")] = 1
	qLo, _, err := Run(SmallMAC(), s.MustConfig(lo))
	if err != nil {
		t.Fatal(err)
	}
	qHi, _, err := Run(SmallMAC(), s.MustConfig(hi))
	if err != nil {
		t.Fatal(err)
	}
	if !(qHi.AreaUm2 < qLo.AreaUm2) {
		t.Errorf("high utilisation area %g !< low %g", qHi.AreaUm2, qLo.AreaUm2)
	}
}

func TestLargeDesignBiggerSlowerHungrier(t *testing.T) {
	qS, _, err := Run(SmallMAC(), midConfig(param.Source2Space()))
	if err != nil {
		t.Fatal(err)
	}
	qL, _, err := Run(LargeMAC(), midConfig(param.Target2Space()))
	if err != nil {
		t.Fatal(err)
	}
	if !(qL.AreaUm2 > qS.AreaUm2 && qL.PowerMW > qS.PowerMW && qL.DelayNS > qS.DelayNS) {
		t.Errorf("large design not dominated in scale: small %+v large %+v", qS, qL)
	}
}

func TestQoRVectorAndMetric(t *testing.T) {
	q := QoR{PowerMW: 1, DelayNS: 2, AreaUm2: 3}
	v := q.Vector([]Metric{Area, Power})
	if v[0] != 3 || v[1] != 1 {
		t.Errorf("Vector = %v", v)
	}
	if Power.String() != "power" || Delay.String() != "delay" || Area.String() != "area" {
		t.Error("metric names wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("Get(bad metric) did not panic")
		}
	}()
	q.Get(Metric(9))
}

// TestQoRVariationAcrossSpace: the response surface must have real spread in
// every metric — a flat surface would make the tuning problem vacuous.
func TestQoRVariationAcrossSpace(t *testing.T) {
	s := param.Target2Space()
	rng := rand.New(rand.NewSource(1))
	cfgs := sample.LHSConfigs(rng, s, 16)
	var qs []QoR
	for _, c := range cfgs {
		q, _, err := Run(LargeMAC(), c)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	spread := func(get func(QoR) float64) float64 {
		lo, hi := get(qs[0]), get(qs[0])
		for _, q := range qs {
			v := get(q)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return (hi - lo) / lo
	}
	if s := spread(func(q QoR) float64 { return q.PowerMW }); s < 0.05 {
		t.Errorf("power spread %.3f too flat", s)
	}
	if s := spread(func(q QoR) float64 { return q.DelayNS }); s < 0.05 {
		t.Errorf("delay spread %.3f too flat", s)
	}
	if s := spread(func(q QoR) float64 { return q.AreaUm2 }); s < 0.05 {
		t.Errorf("area spread %.3f too flat", s)
	}
}

func TestRunRejectsBadEffortString(t *testing.T) {
	// Build a space with an out-of-ladder cong_effort value to exercise the
	// error path.
	s := param.MustSpace("bad", []param.Param{
		{Name: "cong_effort", Kind: param.Enum, Levels: []string{"NOPE", "ALSO_NOPE"}},
	})
	if _, _, err := Run(SmallMAC(), s.MustConfig([]float64{0})); err == nil {
		t.Error("invalid congestion effort accepted")
	}
}

// TestRunAllocationBound pins the flow's allocation profile: each stage
// sizes its buffers once per run, and the placement and timing loops reuse
// them across iterations and passes.
func TestRunAllocationBound(t *testing.T) {
	d := LargeMAC()
	cfg := midConfig(param.Target2Space())
	var err error
	allocs := testing.AllocsPerRun(3, func() {
		_, _, err = Run(d, cfg)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 1000 {
		t.Errorf("one large-MAC flow run allocates %.0f times, want <= 1000", allocs)
	}
}

// TestRunnerReusesMemory bounds what a warm Runner allocates per run: the
// stages' buffers are all reused, leaving only small per-run values.
func TestRunnerReusesMemory(t *testing.T) {
	r := NewRunner(LargeMAC())
	cfg := midConfig(param.Target2Space())
	var err error
	allocs := testing.AllocsPerRun(3, func() {
		_, _, err = r.Run(cfg)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%.0f allocations per warm run", allocs)
	if allocs > 20 {
		t.Errorf("a warm Runner allocates %.0f times per large-MAC run, want <= 20", allocs)
	}
}
