// Command bench runs the GP hot-path micro-benchmarks (internal/gpbench) and
// the flow-simulator benchmarks (one pdtool.Run per op on each MAC design),
// and writes the results to a JSON file, giving every PR a machine-readable
// perf trajectory for the surrogate loop and the tool it tunes:
//
//	go run ./cmd/bench -o BENCH_gp.json
//
// The same benchmarks are exposed to `go test -bench` as BenchmarkFitRefit,
// BenchmarkPredictPool, BenchmarkAddTarget and BenchmarkFlow{Small,Large}MAC
// in the root package; this command exists so CI can archive the numbers
// without scraping test output.
//
// With -against BASELINE.json the command additionally acts as a regression
// gate: after measuring, it compares fresh ns/op to the baseline's and exits
// 1 on a regression. FitRefit and the two flow rows gate at -maxregress (a
// fraction; 0.25 allows +25%); PredictPool and AddTarget are much
// shorter-running and therefore noisier on shared CI hosts, so they gate at
// the wider -maxregress-micro.
// Benchmarks present in only one report are informational.
//
// -scale additionally runs the exact-vs-sparse scale suite (FitScale etc. at
// n ∈ {200, 1000, 5000}); pair it with -benchtime 1x to keep the run short.
// Scale results are recorded but never gated — they exist to document the
// complexity separation, not to police it per commit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"ppatuner/internal/gp"
	"ppatuner/internal/gpbench"
	"ppatuner/internal/param"
	"ppatuner/internal/pdtool"
)

// Result is one benchmark measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Report is the BENCH_gp.json document.
type Report struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// GOMAXPROCS and Workers pin down the concurrency the numbers were taken
	// under: ns/op from a host with different effective parallelism is not
	// comparable, and the gate should know that.
	GOMAXPROCS int      `json:"gomaxprocs"`
	Workers    int      `json:"workers"`
	Timestamp  string   `json:"timestamp"`
	Results    []Result `json:"results"`
}

func run(name string, fn func(*testing.B)) Result {
	r := testing.Benchmark(fn)
	return Result{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// flowBench times one flow run of the design at the centre of the space,
// the workload of the root package's BenchmarkFlow*.
func flowBench(design func() (*pdtool.Design, error), space *param.Space) func(*testing.B) {
	return func(b *testing.B) {
		d, err := design()
		if err != nil {
			b.Fatal(err)
		}
		u := make([]float64, space.Dim())
		for i := range u {
			u[i] = 0.5
		}
		cfg := space.MustConfig(u)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := pdtool.Run(d, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// gate compares the fresh measurements against a baseline report and returns
// an error when a gated benchmark regressed beyond its allowed fraction.
// FitRefit and the flow rows are long-running and gate tightly
// (maxRegress); PredictPool and AddTarget are microsecond-scale and gate at
// the wider maxMicro. Scale-suite entries and benchmarks missing from either
// report are informational.
func gate(fresh Report, baselinePath string, maxRegress, maxMicro float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", baselinePath, err)
	}
	if base.GOMAXPROCS != 0 && base.GOMAXPROCS != fresh.GOMAXPROCS {
		fmt.Printf("gate: note: GOMAXPROCS differs (baseline %d, fresh %d); ratios may reflect the host, not the code\n",
			base.GOMAXPROCS, fresh.GOMAXPROCS)
	}
	allowed := map[string]float64{
		"FitRefit":     maxRegress,
		"PredictPool":  maxMicro,
		"AddTarget":    maxMicro,
		"FlowSmallMAC": maxRegress,
		"FlowLargeMAC": maxRegress,
	}
	baseNs := make(map[string]float64, len(base.Results))
	for _, r := range base.Results {
		baseNs[r.Name] = r.NsPerOp
	}
	var gateErr error
	for _, r := range fresh.Results {
		old, ok := baseNs[r.Name]
		if !ok || old <= 0 {
			continue
		}
		ratio := r.NsPerOp / old
		verdict := "info"
		if max, gated := allowed[r.Name]; gated {
			verdict = "ok"
			if ratio > 1+max {
				verdict = "REGRESSED"
				err := fmt.Errorf("%s regressed: %.0f ns/op vs baseline %.0f ns/op (%.2fx > allowed %.2fx)",
					r.Name, r.NsPerOp, old, ratio, 1+max)
				if gateErr == nil {
					gateErr = err
				}
				fmt.Println(err)
			}
		}
		fmt.Printf("gate %-28s %12.0f ns/op vs %12.0f baseline (%.2fx) [%s]\n",
			r.Name, r.NsPerOp, old, ratio, verdict)
	}
	return gateErr
}

func main() {
	out := flag.String("o", "BENCH_gp.json", "output file for the JSON benchmark report")
	benchtime := flag.String("benchtime", "", "per-benchmark budget as a duration or iteration count (e.g. 2s, 1x); empty keeps the testing default")
	against := flag.String("against", "", "baseline BENCH_gp.json to gate against; exit 1 if a gated benchmark regresses beyond its margin")
	maxRegress := flag.Float64("maxregress", 0.25, "allowed FitRefit and flow ns/op regression vs -against, as a fraction (0.25 = +25%)")
	maxMicro := flag.Float64("maxregress-micro", 0.75, "allowed PredictPool/AddTarget ns/op regression vs -against; wider than -maxregress because microsecond-scale benchmarks are noisier on shared hosts")
	scale := flag.Bool("scale", false, "also run the exact-vs-sparse scale suite (n up to 5000; pair with -benchtime 1x)")
	workers := flag.Int("workers", 1, "SetWorkers value for every benchmarked surrogate (recorded in the report)")
	testing.Init()
	flag.Parse()
	if *benchtime != "" {
		if err := flag.Set("test.benchtime", *benchtime); err != nil {
			fmt.Fprintf(os.Stderr, "bench: -benchtime %s: %v\n", *benchtime, err)
			os.Exit(2)
		}
	}
	gpbench.Workers = *workers

	rep := Report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    *workers,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	benches := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"FitRefit", gpbench.FitRefit},
		{"PredictPool", gpbench.PredictPool},
		{"AddTarget", gpbench.AddTarget},
		{"FlowSmallMAC", flowBench(pdtool.NewSmallMAC, param.Target1Space())},
		{"FlowLargeMAC", flowBench(pdtool.NewLargeMAC, param.Target2Space())},
	}
	if *scale {
		for _, sb := range []struct {
			name string
			fn   func(*testing.B, int, gp.Spec)
		}{
			{"FitScale", gpbench.FitScale},
			{"PredictPoolScale", gpbench.PredictPoolScale},
			{"AddTargetScale", gpbench.AddTargetScale},
		} {
			for _, n := range gpbench.ScaleSizes {
				for _, spec := range []gp.Spec{{}, gpbench.SparseScaleSpec} {
					if !spec.Sparse && n > gpbench.ExactScaleMax {
						continue
					}
					sb, n, spec := sb, n, spec
					benches = append(benches, struct {
						name string
						fn   func(*testing.B)
					}{
						fmt.Sprintf("%s/n%d/%s", sb.name, n, spec),
						func(b *testing.B) { sb.fn(b, n, spec) },
					})
				}
			}
		}
	}
	for _, bench := range benches {
		res := run(bench.name, bench.fn)
		fmt.Printf("%-28s %12.0f ns/op %10d B/op %6d allocs/op (%d iters)\n",
			bench.name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp, res.Iterations)
		rep.Results = append(rep.Results, res)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)

	if *against != "" {
		if err := gate(rep, *against, *maxRegress, *maxMicro); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}
}
