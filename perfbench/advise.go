package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"synergy/internal/features"
	"synergy/internal/hw"
	"synergy/internal/kernelir"
	"synergy/internal/kernelir/compile"
	"synergy/internal/kernelir/opt"
	"synergy/internal/metrics"
	"synergy/internal/microbench"
	"synergy/internal/model"
	"synergy/internal/serve"
	"synergy/internal/sweep"
	"synergy/internal/telemetry"
)

const (
	// conns is the number of load connections (the reference host has
	// two CPUs; the load never uses more connections than that).
	conns = 2
	// limitMs is the p99 latency limit goodput_rps is judged against:
	// about 17 unloaded round trips, so the limit is crossed where the
	// daemon runs out of capacity rather than in the noisy tail below it.
	limitMs = 100.0
	// lagBoundMs bounds the generator's p99 send lag; a step beyond it
	// did not keep its schedule and is invalid.
	lagBoundMs = 5.0
	// adviseSetups is how many times a run sets the daemon up; setup_s is
	// the median.
	adviseSetups = 3
	// bundlePath is where the V100 forest bundle is kept once trained
	// (see -make-bundle), inside the build directory of the checkout.
	bundlePath = ".bench_build/perfbench/v100-forest.json"
)

const (
	// nominalRate is the offered rate (requests per second) p50_ms and
	// p99_ms are measured at, in windows steps that take nominalShare of
	// the run; each is the median over the windows, so one stall of a
	// shared host moves one window, not the figure.
	nominalRate  = 120
	windows      = 5
	nominalShare = 0.6
	// probes is how many fixed-length probe steps the goodput search
	// spends the rest of the run on.
	probes = 6
)

// makeBundle trains the V100 forest bundle as synergy-serve does at
// start-up and stores it for the daemon runs to load. It runs once per
// checkout, in its own process, so training's side effects on the
// process-wide memos never reach a measured run.
func makeBundle() error {
	if _, err := os.Stat(bundlePath); err == nil {
		return nil
	}
	spec := hw.V100()
	ks, err := microbench.Kernels(microbench.DefaultSet())
	if err != nil {
		return err
	}
	ts, err := model.CollectTraining(spec, ks, 4)
	if err != nil {
		return err
	}
	m, err := model.Train(spec, ts, model.AlgoForest)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(bundlePath), 0o755); err != nil {
		return err
	}
	tmp := bundlePath + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := model.SaveModels(f, m); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, bundlePath)
}

func loadBundle() (*model.Models, error) {
	f, err := os.Open(bundlePath)
	if err != nil {
		return nil, fmt.Errorf("loading bundle (build it with -make-bundle): %w", err)
	}
	defer f.Close()
	return model.LoadModels(f)
}

// daemon is one in-process serve.Server on a loopback listener with the
// load generator's HTTP client.
type daemon struct {
	m      *model.Models
	reg    *telemetry.Registry
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	done   chan error
}

// setUp is the daemon's start-up as synergy-serve -bundle performs it —
// load the bundle, build the server, listen — followed by warm-up
// requests on every connection, and for advise-kir the memo prefill.
func setUp(plan *kirPlan) (*daemon, error) {
	m, err := loadBundle()
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	srv, err := serve.New(m, reg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		m: m, reg: reg, srv: srv,
		hs:   &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String() + "/v1/advise",
		done: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true,
		}},
	}
	go func() { d.done <- d.hs.Serve(ln) }()
	warm := adviseOp{Variant: -1, Target: 1}.body()
	for i := 0; i < 8*conns; i++ {
		if _, err := d.post(warm); err != nil {
			d.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	if plan != nil {
		if err := prefill(m.Spec, plan); err != nil {
			d.stop()
			return nil, err
		}
	}
	return d, nil
}

// prefill pushes the most popular half of the kir population through
// the same memo-backed calls the daemon makes for a .kir request
// (assemble, feature extraction, ground-truth sweep), starting from
// empty memos, so every 4096-entry cap is full before timing starts.
func prefill(spec *hw.Spec, plan *kirPlan) error {
	features.ResetCache()
	opt.ResetCache()
	sweep.Shared().Invalidate()
	for _, op := range plan.prefill() {
		k, err := kernelir.Assemble(variantKIR(op.Variant))
		if err != nil {
			return err
		}
		if _, err := features.Extract(k); err != nil {
			return err
		}
		if _, err := sweep.GroundTruth(spec, k, op.Items); err != nil {
			return err
		}
	}
	return nil
}

func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx)
	<-d.done
}

// post sends one advise request and returns the decoded response.
func (d *daemon) post(body []byte) (*serve.Response, error) {
	resp, err := d.client.Post(d.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, b)
	}
	var out serve.Response
	return &out, json.Unmarshal(b, &out)
}

// record is one open-loop request as the generator saw it.
type record struct {
	timing
	Op       adviseOp
	OK       bool // 200 with a decodable body
	Bundle   string
	Degraded string
	Freq     int
	Actual   int
	Mismatch bool // set by the oracle
}

// runStep plays one step's schedule over conns connections. Each
// connection takes the next request in schedule order, sleeps until it
// is due, sends it and reads the whole response; requests are timed
// from their due instant.
func (d *daemon) runStep(st step, bodies [][]byte) []record {
	recs := make([]record, len(st.Due))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now().Add(2 * time.Millisecond)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(recs) {
					return
				}
				r := &recs[i]
				r.Op = st.Ops[i]
				r.Due = st.Due[i]
				r.Free = time.Since(t0)
				if wait := r.Due - r.Free; wait > 0 {
					time.Sleep(wait)
				}
				r.Start = time.Since(t0)
				resp, err := d.client.Post(d.url, "application/json", bytes.NewReader(bodies[i]))
				if err != nil {
					r.End = time.Since(t0)
					continue
				}
				b, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				r.End = time.Since(t0)
				var out serve.Response
				if err == nil && resp.StatusCode == http.StatusOK && json.Unmarshal(b, &out) == nil {
					r.OK, r.Bundle, r.Degraded, r.Freq, r.Actual = true, out.Bundle, out.Degraded, out.FreqMHz, out.ActualFreqMHz
				}
			}
		}()
	}
	wg.Wait()
	return recs
}

// failed reports whether a request counts as failed: not a 200, served
// degraded, or disagreeing with the oracle.
func (r *record) failed() bool { return !r.OK || r.Degraded != "" || r.Mismatch }

// summarise reduces one step's records.
func summarise(st step, recs []record) stepResult {
	s := stepResult{Rate: st.Rate, N: len(recs)}
	lat := make([]float64, len(recs))
	lag := make([]float64, len(recs))
	ts := make([]timing, len(recs))
	for i := range recs {
		lat[i] = ms(recs[i].Latency())
		lag[i] = ms(recs[i].Lag())
		ts[i] = recs[i].timing
		if recs[i].failed() {
			s.Failed++
		}
	}
	lat, lag = sortedCopy(lat), sortedCopy(lag)
	s.P50Ms = median(lat)
	s.TailMs, s.TailPct, _ = tail(lat)
	s.LagP99Ms, _, _ = tail(lag)
	if len(lag) > 0 {
		s.LagMaxMs = lag[len(lag)-1]
	}
	s.Valid = s.LagP99Ms <= lagBoundMs
	s.Backlog = backlogGrowing(ts, st.Len, conns)
	if len(recs) > 1 {
		first, last := recs[0].Start, recs[0].End
		for _, r := range recs {
			first, last = min(first, r.Start), max(last, r.End)
		}
		s.Throughput = float64(len(recs)-s.Failed) / (last - first).Seconds()
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// oracle checks every advise response against an independent reference:
// the advised frequency and bundle against a private model.Predictor on
// the same bundle fed the original suite kernel's features (a rename
// does not change them), and the ground-truth frequency against a
// private sweep engine that shares no memo with the daemon.
type oracle struct {
	pred    *model.Predictor
	bundle  string
	spec    *hw.Spec
	eng     *sweep.Engine
	freq    map[[2]int]int
	actual  map[adviseOp]int
	kernels map[int]*kernelir.Kernel
}

func newOracle(m *model.Models) (*oracle, error) {
	p, err := m.NewPredictor()
	if err != nil {
		return nil, err
	}
	fp, err := m.Fingerprint()
	if err != nil {
		return nil, err
	}
	return &oracle{pred: p, bundle: fp, spec: m.Spec, eng: sweep.NewEngine(),
		freq: map[[2]int]int{}, actual: map[adviseOp]int{}, kernels: map[int]*kernelir.Kernel{}}, nil
}

func (o *oracle) check(r *record) error {
	if !r.OK {
		return nil
	}
	key := [2]int{r.Op.Bench, r.Op.Target}
	want, ok := o.freq[key]
	if !ok {
		v, err := features.Extract(suite[r.Op.Bench].Kernel)
		if err != nil {
			return err
		}
		a, err := o.pred.Advise(v, metrics.StandardTargets[r.Op.Target])
		if err != nil {
			return err
		}
		want = a.FreqMHz
		o.freq[key] = want
	}
	r.Mismatch = r.Freq != want || r.Bundle != o.bundle
	if r.Op.Variant < 0 || r.Degraded != "" {
		return nil
	}
	wantA, ok := o.actual[r.Op]
	if !ok {
		// Ground truth depends on the kernel's name (it seeds the device
		// model's measurement noise), so the reference sweeps the renamed
		// kernel itself, assembled afresh from the request text.
		k, ok := o.kernels[r.Op.Variant]
		if !ok {
			var err error
			if k, err = kernelir.Assemble(variantKIR(r.Op.Variant)); err != nil {
				return err
			}
			o.kernels[r.Op.Variant] = k
		}
		gt, err := o.eng.GroundTruth(o.spec, k, r.Op.Items)
		if err != nil {
			return err
		}
		sel, err := gt.Select(metrics.StandardTargets[r.Op.Target])
		if err != nil {
			return err
		}
		wantA = sel.FreqMHz
		o.actual[r.Op] = wantA
	}
	r.Mismatch = r.Mismatch || r.Actual != wantA
	return nil
}

// setUpTimed sets the daemon up adviseSetups times, keeping the last
// one, and returns it with the median set-up time.
func setUpTimed(plan *kirPlan) (*daemon, float64, error) {
	var d *daemon
	var times []float64
	for i := 0; i < adviseSetups; i++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		var err error
		if d, err = setUp(plan); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return d, median(sortedCopy(times)), nil
}

// searchGoodput probes offered rates to bracket the highest one that
// passes: it doubles the rate from the nominal one until a probe fails,
// then bisects the bracket, for probes steps in all.
func searchGoodput(pass func(rate float64) bool) {
	lo, hi := float64(nominalRate), 0.0
	for i := 0; i < probes; i++ {
		r := 2 * lo
		if hi > 0 {
			r = math.Round((lo + hi) / 2)
		}
		if pass(r) {
			lo = r
		} else {
			hi = r
		}
	}
}

// capacity is the rate the connections could sustain back to back at
// the step's round-trip times: successful requests per second of
// connection busy time, times the connection count.
func capacity(recs []record) float64 {
	busy, ok := 0.0, 0
	for _, r := range recs {
		busy += r.RoundTrip().Seconds()
		if !r.failed() {
			ok++
		}
	}
	return conns * float64(ok) / busy
}

// heapMB is the live heap after a full collection, in MB. The second
// collection empties the sync.Pool victim caches the first one fills.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / 1e6
}

// runAdvise runs advise-features or advise-kir.
func runAdvise(cfg config) (*result, error) {
	if cfg.Trace {
		return traceAdvise(cfg)
	}
	kir := cfg.Workload == "advise-kir"
	var plan *kirPlan
	if kir {
		plan = newKIRPlan(cfg.Seed)
	}
	total := time.Duration(cfg.Seconds * float64(time.Second))

	d, setupS, err := setUpTimed(plan)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	fc0, fe0 := features.CacheHits(), features.Extractions()
	ev0, evict0 := sweep.Shared().Evaluations(), sweep.Shared().Evictions()

	var steps []step
	var recs [][]record
	run := func(rate float64, d0 time.Duration) stepResult {
		st := makeStep(cfg.Seed, plan, len(steps), rate, d0)
		bodies := make([][]byte, len(st.Ops))
		for i, op := range st.Ops {
			bodies[i] = op.body()
		}
		runtime.GC() // start every step without the garbage of the last
		rs := d.runStep(st, bodies)
		steps, recs = append(steps, st), append(recs, rs)
		return summarise(st, rs)
	}
	for w := 0; w < windows; w++ {
		run(nominalRate, time.Duration(nominalShare*float64(total))/windows)
	}
	searchGoodput(func(rate float64) bool {
		return run(rate, time.Duration((1-nominalShare)*float64(total))/probes).passes(limitMs)
	})
	fmt.Printf("# memo deltas: features hits=%d extractions=%d sweep evaluations=%d evictions=%d; compiled programs held=%d\n",
		features.CacheHits()-fc0, features.Extractions()-fe0,
		sweep.Shared().Evaluations()-ev0, sweep.Shared().Evictions()-evict0, compileLen())

	o, err := newOracle(d.m)
	if err != nil {
		return nil, err
	}
	res := &result{}
	var results []stepResult
	for i, rs := range recs {
		for j := range rs {
			if err := o.check(&rs[j]); err != nil {
				return nil, fmt.Errorf("oracle: %w", err)
			}
			res.Attempted++
			if rs[j].failed() {
				res.Failed++
			}
		}
		sr := summarise(steps[i], rs)
		results = append(results, sr)
		fmt.Printf("# step %.0f/s: n=%d failed=%d p50=%.3fms p%.2f=%.3fms lag p99=%.3fms max=%.3fms backlog=%v throughput=%.1f/s valid=%v\n",
			sr.Rate, sr.N, sr.Failed, sr.P50Ms, sr.TailPct, sr.TailMs, sr.LagP99Ms, sr.LagMaxMs, sr.Backlog, sr.Throughput, sr.Valid)
	}
	// The nominal windows whose generator kept its schedule; a window
	// that lost it is reported and left out, and a run without any is
	// invalid.
	var p50, p99, caps []float64
	for i, sr := range results[:windows] {
		if !sr.Valid {
			fmt.Printf("# nominal window %d invalid: send lag p99 %.3f ms > %.1f ms\n", i, sr.LagP99Ms, lagBoundMs)
			continue
		}
		p50, p99, caps = append(p50, sr.P50Ms), append(p99, sr.TailMs), append(caps, capacity(recs[i]))
		fmt.Printf("# p99_ms window %d is p%.2f of %d samples at %d req/s\n", i, sr.TailPct, sr.N, nominalRate)
	}
	if len(p50) == 0 {
		return nil, fmt.Errorf("run invalid: the generator missed its schedule (send lag p99 > %.1f ms) in every nominal window", lagBoundMs)
	}
	recs, steps = nil, nil
	res.Correct = res.Failed == 0
	res.set("setup_s", setupS, "s")
	res.set("p50_ms", median(sortedCopy(p50)), "ms")
	res.set("p99_ms", median(sortedCopy(p99)), "ms")
	res.set("goodput_rps", goodput(results, limitMs), "req/s")
	res.set("ops_per_s", median(sortedCopy(caps)), "op/s")
	res.set("heap_mb", heapMB(), "MB")
	res.set("ok_ratio", 1-float64(res.Failed)/float64(res.Attempted), "ratio")
	return res, nil
}

// compileLen is the compiled-program cache size.
func compileLen() int { return compile.Default().Len() }
