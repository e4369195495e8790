package gp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"ppatuner/internal/simd"
)

// goldenFitDigests pins both surrogates bit for bit: for each case, the
// SHA-256 over the fitted hyper-parameters (ρ, both noises, Var, Len), the
// NLML at the optimum, the posterior over a candidate pool, and the pool
// posterior again after one AddTarget. Refactoring the GP code must leave
// these unchanged. An intended change to the model or the fit re-baselines
// them (print the new values with -v) and records why in CHANGES.md.
var goldenFitDigests = map[string]string{
	"exact/rbf/ard/transfer":                  "9b89b1c8908613beb8e1ff63be833afa21999ac2d83940d22c5c18ee44337994",
	"exact/rbf/ard/target-only":               "9068a233e67eed289e11e17cf6fcd3799155f81221df280d5ae40ff53404221f",
	"exact/rbf/iso/transfer":                  "cb3f7ef3a70ec624827fff8b46e6bdf1b5f1eaa0e0577d24999864f63e8ec169",
	"exact/rbf/iso/target-only":               "584971deabdb90eca120fd15dfaa908ca35743dc413816ed6aa1d8ea22f7d535",
	"exact/matern52/ard/transfer":             "2dabd8e92e6505cdd3ed7ccd1235ab4e9f0658210caa3604a9126274a92d2845",
	"exact/matern52/ard/target-only":          "85904f48a99690b9503d19cad8a391f15fcfbdf4c663ca051b83e24f253d9655",
	"exact/matern52/iso/transfer":             "3b4922dd7cdbcf1e3a901d93c14fc3467ec76fc89f3b723b84a959acb28f77a6",
	"exact/matern52/iso/target-only":          "8f7e86e87dc7b6e0a7e8d7db3fed872d9369d6dd44fad7ec73de503fe46d41ea",
	"sparse:16/rbf/ard/transfer":              "72d73f10df599e0f1d9ea7c14f2fa0db9bf7cfdf32e68f9c0bfaa897fb90c443",
	"sparse:16/rbf/ard/target-only":           "22c6da5e6a27565526fd7dabe78d6ccd9214c671a1bb421dee1cd78a4f471b4c",
	"sparse:16/rbf/iso/transfer":              "8e815485e327b06347d7f06cf79731e9ea870a95dd0e1063c539c62d5b4e7b1a",
	"sparse:16/rbf/iso/target-only":           "f111842b981063c03be4da72060a2ecef3f0bc60aaf7647d71084a4ba2927389",
	"sparse:16/matern52/ard/transfer":         "4a5fa27ff37f31a21451cbd3beff58f1dcac0de85150790ed32f7b52c971a203",
	"sparse:16/matern52/ard/target-only":      "d663219c168083f1eda08e9ae80ee79102542b3e766a09b3e963ff46c7ab8e70",
	"sparse:16/matern52/iso/transfer":         "b98d928279240f929e5818e21c65079aa0624530405978ec221ad897f6f0bf3d",
	"sparse:16/matern52/iso/target-only":      "e280d13a6dd12170b8c833155f6741dcfdeae709c40fed26c0ec52bd34bcd705",
	"exact/rbf/ard/transfer/subsample30":      "c99ae58eb50c297148b2def9f728162f75ab5ef289f84c21bf9452cacb91f370",
	"exact/matern52/ard/transfer/subsample30": "fd823ecd8303582d06595b227933a194711650b34010e8b6da794b8ba9a26ba9",
}

// fitDigestCase is one surrogate configuration of the golden fit digest.
type fitDigestCase struct {
	spec      Spec
	kind      CovKind
	ard       bool
	source    bool
	subsample int
}

func (c fitDigestCase) name() string {
	s := fmt.Sprintf("%s/%s", c.spec, c.kind)
	if c.ard {
		s += "/ard"
	} else {
		s += "/iso"
	}
	if c.source {
		s += "/transfer"
	} else {
		s += "/target-only"
	}
	if c.subsample > 0 {
		s += fmt.Sprintf("/subsample%d", c.subsample)
	}
	return s
}

func fitDigestCases() []fitDigestCase {
	var cs []fitDigestCase
	for _, spec := range []Spec{{}, {Sparse: true, M: 16, Seed: 5}} {
		for _, kind := range []CovKind{RBF, Matern52} {
			for _, ard := range []bool{true, false} {
				for _, source := range []bool{true, false} {
					cs = append(cs, fitDigestCase{spec: spec, kind: kind, ard: ard, source: source})
				}
			}
		}
	}
	return append(cs,
		fitDigestCase{kind: RBF, ard: true, source: true, subsample: 30},
		fitDigestCase{kind: Matern52, ard: true, source: true, subsample: 30},
	)
}

// digestModel runs the case's fit and posterior operations and hashes every
// float they produce.
func digestModel(t *testing.T, c fitDigestCase) string {
	t.Helper()
	// Eight dimensions, the paper's tuning-space width, so the ARD Matérn
	// fill takes its d = 8 assembly path.
	const dim = 8
	rng := rand.New(rand.NewSource(41))
	xs, ys, xt, yt := transferSet(rng, 40, 20, dim)
	pool, _, _, _ := transferSet(rng, 25, 0, dim)
	xNew, yNew := xt[0], yt[0]+0.05
	xt, yt = xt[1:], yt[1:]

	m := c.spec.New(c.kind, dim, c.ard)
	if c.source {
		if err := m.SetSource(xs, ys); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.SetTarget(xt, yt); err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(FitOptions{Subsample: c.subsample}); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	f := func(v float64) { hashFloat(h, v) }
	f(m.Rho())
	nt, ns := m.Noise()
	f(nt)
	f(ns)
	f(m.Cov().Var)
	for _, l := range m.Cov().Len {
		f(l)
	}
	f(m.NLML())
	if err := m.AttachPool(pool); err != nil {
		t.Fatal(err)
	}
	predict := func() {
		for p := range pool {
			mu, sd := m.PredictPool(p)
			f(mu)
			f(sd)
		}
	}
	predict()
	if err := m.AddTarget(xNew, yNew); err != nil {
		t.Fatal(err)
	}
	predict()
	return hex.EncodeToString(h.Sum(nil))
}

func hashFloat(h hash.Hash, v float64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	h.Write(buf[:])
}

// TestGoldenFitDigest checks every surrogate configuration against its
// golden digest. The digests were recorded with the AVX2+FMA kernels; the
// portable kernels differ from them by a few ulps, so other hosts skip.
func TestGoldenFitDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" || !simd.Enabled() {
		t.Skipf("golden fit digests are recorded with the amd64 AVX2+FMA kernels")
	}
	for _, c := range fitDigestCases() {
		t.Run(c.name(), func(t *testing.T) {
			got := digestModel(t, c)
			t.Logf("%s: %s", c.name(), got)
			if want := goldenFitDigests[c.name()]; got != want {
				t.Errorf("fit digest %s = %s, want %s", c.name(), got, want)
			}
		})
	}
}
