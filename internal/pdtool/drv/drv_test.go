package drv

import (
	"testing"

	"ppatuner/internal/pdtool/lib"
	"ppatuner/internal/pdtool/netlist"
	"ppatuner/internal/pdtool/place"
)

func placed(t *testing.T) (*netlist.Netlist, *lib.Library, *place.Result) {
	t.Helper()
	nl, err := netlist.MAC("m", 8)
	if err != nil {
		t.Fatal(err)
	}
	l := lib.Default7nm()
	pl, err := place.Place(nl, l, place.Options{TargetUtil: 0.7, MaxBinDensity: 0.8, Iterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	return nl, l, pl
}

func relaxed() Limits {
	return Limits{MaxFanout: 1000, MaxCapFF: 1e6, MaxTransPS: 1e6, MaxLenUm: 1e6}
}

func TestFixNoViolationsUnderRelaxedLimits(t *testing.T) {
	nl, l, pl := placed(t)
	res, err := Fix(nl, l, pl, relaxed())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBuffers != 0 || res.Violations != 0 {
		t.Errorf("relaxed limits inserted %d buffers (%d violations)", res.TotalBuffers, res.Violations)
	}
	for id, f := range res.Fix {
		if f.Stages != 1 {
			t.Fatalf("net %d has %d stages under relaxed limits", id, f.Stages)
		}
	}
}

func TestFixFanoutRule(t *testing.T) {
	nl, l, pl := placed(t)
	lm := relaxed()
	lm.MaxFanout = 4
	res, err := Fix(nl, l, pl, lm)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBuffers == 0 {
		t.Fatal("fanout limit 4 on a MAC inserted no buffers")
	}
	// Every net with >4 sinks must be staged.
	for id, net := range nl.Nets {
		if len(net.Sinks) > 4 && res.Fix[id].Stages < 2 {
			t.Fatalf("net %d with %d sinks not buffered", id, len(net.Sinks))
		}
	}
}

func TestFixTighterLimitsMoreBuffers(t *testing.T) {
	nl, l, pl := placed(t)
	loose := relaxed()
	loose.MaxCapFF = 40
	tight := relaxed()
	tight.MaxCapFF = 10
	rl, err := Fix(nl, l, pl, loose)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Fix(nl, l, pl, tight)
	if err != nil {
		t.Fatal(err)
	}
	if !(rt.TotalBuffers > rl.TotalBuffers) {
		t.Errorf("tight cap %d buffers !> loose %d", rt.TotalBuffers, rl.TotalBuffers)
	}
	if !(rt.BufferArea > rl.BufferArea) || !(rt.BufferLeakage > rl.BufferLeakage) {
		t.Error("buffer overheads not monotone with buffer count")
	}
}

func TestFixLengthRule(t *testing.T) {
	nl, l, pl := placed(t)
	lm := relaxed()
	lm.MaxLenUm = 2 // almost every real net is longer
	res, err := Fix(nl, l, pl, lm)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBuffers == 0 {
		t.Fatal("2µm length limit inserted no buffers")
	}
}

func TestFixStageChainCapped(t *testing.T) {
	nl, l, pl := placed(t)
	lm := relaxed()
	lm.MaxFanout = 1
	res, err := Fix(nl, l, pl, lm)
	if err != nil {
		t.Fatal(err)
	}
	for id, f := range res.Fix {
		if f.Stages > 16 {
			t.Fatalf("net %d has %d stages, cap is 16", id, f.Stages)
		}
	}
}

func TestLimitsValidate(t *testing.T) {
	bad := []Limits{
		{MaxFanout: 0, MaxCapFF: 1, MaxTransPS: 1, MaxLenUm: 1},
		{MaxFanout: 1, MaxCapFF: 0, MaxTransPS: 1, MaxLenUm: 1},
		{MaxFanout: 1, MaxCapFF: 1, MaxTransPS: -1, MaxLenUm: 1},
		{MaxFanout: 1, MaxCapFF: 1, MaxTransPS: 1, MaxLenUm: 0},
	}
	for i, lm := range bad {
		if err := lm.Validate(); err == nil {
			t.Errorf("bad limits %d accepted: %+v", i, lm)
		}
	}
	nl, l, pl := placed(t)
	if _, err := Fix(nl, l, pl, bad[0]); err == nil {
		t.Error("Fix accepted invalid limits")
	}
}

func TestNetCapIncludesBuffers(t *testing.T) {
	nl, l, pl := placed(t)
	unbuf, err := Fix(nl, l, pl, relaxed())
	if err != nil {
		t.Fatal(err)
	}
	lm := relaxed()
	lm.MaxFanout = 2
	buf, err := Fix(nl, l, pl, lm)
	if err != nil {
		t.Fatal(err)
	}
	// Total switched cap with buffers must exceed without, summed over nets.
	var cU, cB float64
	for id := range nl.Nets {
		cU += unbuf.NetCapFF(l, nl, id, 1.0)
		cB += buf.NetCapFF(l, nl, id, 1.0)
	}
	if !(cB > cU) {
		t.Errorf("buffered total cap %g !> unbuffered %g", cB, cU)
	}
}
