// Command perfbench is the repository's benchmark: seeded workloads run
// against the public APIs of the advice daemon (internal/serve over real
// loopback HTTP) and of ground-truth fleet placement (internal/placement
// over the shared sweep memo), every answer checked against an
// independent oracle outside the timed region.
//
//	go run . --workload advise-features --seed 1 --seconds 15 --trace 0
//
// It must run from the root of a checkout of the repository. With
// --trace 0 it prints the end-to-end metrics; with --trace 1 it times
// each layer with spans placed around calls into that layer's public
// functions and prints the per-layer metrics. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. NOTES.md explains the workloads, metrics and bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config) (*result, error){
	"advise-features": runAdvise,
	"advise-kir":      runAdvise,
	"place-warm":      runPlace,
	"place-cold":      runPlace,
}

// endToEnd is every end-to-end metric with its unit: what --trace 0
// reports on every workload.
var endToEnd = map[string]string{
	"setup_s":     "s",
	"p50_ms":      "ms",
	"p99_ms":      "ms",
	"goodput_rps": "req/s",
	"ops_per_s":   "op/s",
	"heap_mb":     "MB",
	"ok_ratio":    "ratio",
}

// perLayer is every per-layer metric with its unit: what --trace 1
// reports on every workload.
func perLayer() map[string]string {
	m := map[string]string{}
	for _, n := range usLayers {
		m[n], m[n+"_p99"] = "us", "us"
	}
	for _, c := range countLayers {
		m[c[0]] = c[1]
	}
	return m
}

type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict: the JSON object on the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// conforms checks that the result reports exactly the wanted metrics,
// with their units.
func (r *result) conforms(want map[string]string) error {
	if len(r.Metrics) != len(want) {
		return fmt.Errorf("reported %d metrics, want %d", len(r.Metrics), len(want))
	}
	for n, u := range want {
		if m, ok := r.Metrics[n]; !ok || m.Unit != u {
			return fmt.Errorf("metric %s: got %+v, want unit %s", n, m, u)
		}
	}
	return nil
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "", "workload: advise-features, advise-kir, place-warm or place-cold")
	flag.Int64Var(&cfg.Seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.Seconds, "seconds", 15, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	mkBundle := flag.Bool("make-bundle", false, "train and store the V100 forest bundle the advise workloads load, then exit")
	flag.Parse()
	if *mkBundle {
		if err := makeBundle(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	cfg.Trace = trace == 1
	run, ok := workloads[cfg.Workload]
	if !ok || cfg.Seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", cfg.Workload, cfg.Seconds, trace)
		os.Exit(2)
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: must run from the repository root:", err)
		os.Exit(2)
	}
	if strings.HasPrefix(cfg.Workload, "advise-") {
		// The open-loop generator shares the process with the daemon. One
		// processor beyond the CPUs lets it wake when a request is due
		// instead of when a curve evaluation (several ms, one per
		// connection) frees a processor.
		runtime.GOMAXPROCS(runtime.NumCPU() + 1)
	}
	stamp(cfg)
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printMetrics(res)
	want := endToEnd
	if cfg.Trace {
		want = perLayer()
	}
	if err := res.conforms(want); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// stamp prints the provenance of the run: host, parallelism, toolchain,
// source identity, date and seed.
func stamp(cfg config) {
	fmt.Printf("# perfbench %s seed=%d seconds=%g trace=%v\n", cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Trace)
	fmt.Printf("# host cpu=%q nproc=%d gomaxprocs=%d go=%s %s/%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("# source commit=%s tree=%s date=%s\n", commit(), sourceDigest(), time.Now().UTC().Format(time.RFC3339))
}

// printMetrics prints the metrics one per line, sorted by name.
func printMetrics(r *result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Printf("attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
}
