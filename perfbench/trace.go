package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"

	"synergy/internal/features"
	"synergy/internal/hw"
	"synergy/internal/kernelir"
	"synergy/internal/kernelir/compile"
	"synergy/internal/kernelir/opt"
	"synergy/internal/metrics"
	"synergy/internal/placement"
	"synergy/internal/serve"
	"synergy/internal/sweep"
)

// The traced run (--trace 1) times every layer with spans the benchmark
// places around calls into that layer's public functions, replaying
// each op's calls in the order the daemon or synergy-place makes them.
// It runs the traced phase first (one sequential caller, so the memo
// traffic is deterministic and checked against an independent LRU
// simulation), then an untraced phase identical to the end-to-end run,
// whose p50 the layer self times must account for.

const (
	// tracedShare and untracedShare split --seconds between the phases.
	tracedShare, untracedShare = 0.6, 0.3
	// residualBound is the largest share of the untraced p50 the layer
	// self times may leave unaccounted before the traced run fails.
	residualBound = 0.25
)

// usLayers are the span metrics: each is reported as its median per op
// (µs) and, with a _p99 suffix, its tail.
var usLayers = []string{
	"serve.handler_us", "serve.http_us", "serve.json_us", "serve.wait_us",
	"kernelir.assemble_us", "kernelir.fingerprint_us",
	"opt.cached_us", "compile.cached_us",
	"features.extract_us", "features.frommap_us",
	"model.curve_us", "model.select_us",
	"sweep.key_us", "sweep.hit_us", "sweep.miss_us",
	"metrics.select_us",
	"placement.build_us", "placement.select_us",
}

// countLayers are the per-layer counts and ratios, with their units.
var countLayers = [][2]string{
	{"serve.shed", "count"}, {"serve.degraded", "count"},
	{"compile.hit_ratio", "ratio"}, {"features.hit_ratio", "ratio"},
	{"model.preds_per_advise", "count"},
	{"sweep.hit_ratio", "ratio"}, {"sweep.evictions", "count"},
	{"hw.evaluate_ns", "ns"}, {"hw.points_per_op", "count"},
	{"placement.candidates", "count"},
	{"runtime.alloc_kb_per_op", "KB"}, {"runtime.gc_cpu_frac", "ratio"},
	{"layers.sum_us", "us"}, {"layers.residual_share", "ratio"}, {"trace.overhead_ratio", "ratio"},
}

// spans collects per-op span durations (µs) by metric name.
type spans map[string][]float64

func (s spans) add(name string, d time.Duration) { s[name] = append(s[name], us(d)) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func (s spans) med(name string) float64 { return median(sortedCopy(s[name])) }

// p99 is the tail by the benchmark's rule, or the largest sample when
// there are too few for the rule to reach the 90th percentile.
func (s spans) p99(name string) float64 {
	v := sortedCopy(s[name])
	if t, pct, ok := tail(v); ok && pct >= 90 {
		return t
	}
	if len(v) == 0 {
		return 0
	}
	return v[len(v)-1]
}

// counters is a reading of every memo counter the layers expose.
type counters struct {
	FeatHits, FeatExtractions int64
	OptHits, OptRuns          int64
	CompHits, CompCompiles    int64
	CompEvictions             int64
	SweepEvals, SweepEvicts   int64
}

func readCounters() counters {
	_, oh, or := opt.CacheStats()
	c := compile.Default()
	return counters{
		FeatHits: features.CacheHits(), FeatExtractions: features.Extractions(),
		OptHits: int64(oh), OptRuns: int64(or),
		CompHits: c.Hits(), CompCompiles: c.Compiles(), CompEvictions: c.Evictions(),
		SweepEvals: sweep.Shared().Evaluations(), SweepEvicts: sweep.Shared().Evictions(),
	}
}

func (c counters) sub(o counters) counters {
	return counters{
		c.FeatHits - o.FeatHits, c.FeatExtractions - o.FeatExtractions,
		c.OptHits - o.OptHits, c.OptRuns - o.OptRuns,
		c.CompHits - o.CompHits, c.CompCompiles - o.CompCompiles, c.CompEvictions - o.CompEvictions,
		c.SweepEvals - o.SweepEvals, c.SweepEvicts - o.SweepEvicts,
	}
}

func (c counters) add(o counters) counters {
	return counters{
		c.FeatHits + o.FeatHits, c.FeatExtractions + o.FeatExtractions,
		c.OptHits + o.OptHits, c.OptRuns + o.OptRuns,
		c.CompHits + o.CompHits, c.CompCompiles + o.CompCompiles, c.CompEvictions + o.CompEvictions,
		c.SweepEvals + o.SweepEvals, c.SweepEvicts + o.SweepEvicts,
	}
}

// misses drops the hit counts: what a warm replay must leave unchanged.
func (c counters) misses() counters {
	c.FeatHits, c.OptHits, c.CompHits = 0, 0, 0
	return c
}

// runtimeReading samples allocation and CPU time from runtime/metrics.
type runtimeReading struct{ alloc, gcCPU, cpu float64 }

func readRuntime() runtimeReading {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return runtimeReading{float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()}
}

// setRuntime reports allocation per op and the GC's share of CPU time
// between two readings.
func setRuntime(res *result, a, b runtimeReading, ops int) {
	res.set("runtime.alloc_kb_per_op", (b.alloc-a.alloc)/1024/float64(ops), "KB")
	frac := 0.0
	if b.cpu > a.cpu {
		frac = (b.gcCPU - a.gcCPU) / (b.cpu - a.cpu)
	}
	res.set("runtime.gc_cpu_frac", frac, "ratio")
}

// tracedResult starts a per-layer result with every layer metric at 0,
// so layers a workload does not reach read as doing no work.
func tracedResult(sp spans) *result {
	res := &result{Correct: true}
	for _, n := range usLayers {
		res.set(n, sp.med(n), "us")
		res.set(n+"_p99", sp.p99(n), "us")
	}
	for _, c := range countLayers {
		res.set(c[0], 0, c[1])
	}
	return res
}

// account prints each layer's self time, their sum and the residual
// against the untraced p50, and the tracing overhead; a residual above
// residualBound fails the run.
func account(res *result, sp spans, partition []string, opTotals []float64, p50us float64) {
	sum := 0.0
	fmt.Printf("# layer self times (median per op, us):\n")
	for _, n := range partition {
		m := sp.med(n)
		sum += m
		fmt.Printf("#   %-24s %10.3f\n", n, m)
	}
	resid := p50us - sum
	share := resid / p50us
	traced := median(sortedCopy(opTotals))
	fmt.Printf("# sum %.3f us, untraced p50 %.3f us, residual %.3f us (%.1f%%, bound %.0f%%); traced p50 %.3f us, overhead %+.1f%%\n",
		sum, p50us, resid, 100*share, 100*residualBound, traced, 100*(traced/p50us-1))
	res.set("layers.sum_us", sum, "us")
	res.set("layers.residual_share", share, "ratio")
	res.set("trace.overhead_ratio", traced/p50us-1, "ratio")
	if share > residualBound || share < -residualBound {
		fmt.Printf("# FAIL: layer self times leave %.1f%% of p50 unaccounted\n", 100*share)
		res.Correct = false
	}
}

// checkCounters compares memo traffic with the expected counts.
func checkCounters(res *result, what string, got, want counters) {
	fmt.Printf("# %s memo traffic: got %+v\n#   expected %+v\n", what, got, want)
	if got != want {
		fmt.Printf("# FAIL: %s memo traffic differs from the simulation\n", what)
		res.Correct = false
	}
}

func traceAdvise(cfg config) (*result, error) {
	kir := cfg.Workload == "advise-kir"
	var plan *kirPlan
	if kir {
		plan = newKIRPlan(cfg.Seed)
	}
	total := time.Duration(cfg.Seconds * float64(time.Second))
	d, err := setUp(plan)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	p, err := d.m.NewPredictor()
	if err != nil {
		return nil, err
	}
	spec := d.m.Spec
	sim := newKIRSim(plan)
	snap0 := d.reg.Snapshot()

	// Traced phase: the op stream of the nominal step, one op at a time.
	st := makeStep(cfg.Seed, plan, 0, nominalRate, total)
	sp := spans{}
	var opTotals []float64
	var traced []record
	var replica counters
	var sweeps, points int
	ctx := context.Background()
	runtime.GC()
	t0 := time.Now()
	for _, op := range st.Ops {
		if time.Since(t0) > time.Duration(tracedShare*float64(total)) {
			break
		}
		body := op.body()
		c0 := readCounters()
		t := time.Now()
		var req serve.Request
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		jsonT := time.Since(t)
		target, err := metrics.ParseTarget(req.Target)
		if err != nil {
			return nil, err
		}
		var v features.Vector
		var k *kernelir.Kernel
		// span records a layer call of the op's partition.
		layersT := time.Duration(0)
		span := func(name string, from time.Time) {
			dt := time.Since(from)
			sp.add(name, dt)
			layersT += dt
		}
		if kir {
			t = time.Now()
			if k, err = kernelir.Assemble(req.KIR); err != nil {
				return nil, err
			}
			span("kernelir.assemble_us", t)
			t = time.Now()
			kernelir.Fingerprint(k)
			span("kernelir.fingerprint_us", t)
			ex := features.Extractions()
			t = time.Now()
			if v, err = features.ExtractContext(ctx, k); err != nil {
				return nil, err
			}
			span("features.extract_us", t)
			if features.Extractions() > ex {
				t = time.Now()
				opt.Cached(k)
				sp.add("opt.cached_us", time.Since(t))
			}
		} else {
			t = time.Now()
			if v, err = features.FromMap(req.Features); err != nil {
				return nil, err
			}
			span("features.frommap_us", t)
		}
		t = time.Now()
		curve := p.Curve(v)
		span("model.curve_us", t)
		// Advise's step after the curve: clamp the predicted points, build
		// the sweep and search it for the target.
		t = time.Now()
		pts := make([]metrics.Point, len(curve))
		for i, pt := range curve {
			pts[i] = metrics.Point{FreqMHz: pt.FreqMHz, TimeSec: math.Max(pt.TimeNs, 1e-9), EnergyJ: math.Max(pt.EnergyNanoJ, 1e-9)}
		}
		psw, err := metrics.NewSweep(pts, spec.BaselineCoreMHz())
		if err == nil {
			_, err = psw.Select(target)
		}
		if err != nil {
			return nil, err
		}
		span("model.select_us", t)
		a, err := p.Advise(v, target) // the advice itself, for the response
		if err != nil {
			return nil, err
		}
		resp := serve.Response{Device: spec.Name, Algo: d.m.Algo, Target: target.String(), FreqMHz: a.FreqMHz,
			BaselineMHz: a.BaselineMHz, TimeNs: a.TimeNs, EnergyNanoJ: a.EnergyNanoJ, ESPct: a.ESPct, PLPct: a.PLPct,
			Bundle: d.srv.BundleFingerprint()}
		if kir {
			t = time.Now()
			sweep.KeyFor(spec, k, req.Items)
			sp.add("sweep.key_us", time.Since(t))
			ev := sweep.Shared().Evaluations()
			t = time.Now()
			gt, err := sweep.GroundTruthContext(ctx, spec, k, req.Items)
			if err != nil {
				return nil, err
			}
			miss := sweep.Shared().Evaluations() > ev
			name := "sweep.hit_us"
			if miss {
				name = "sweep.miss_us"
			}
			span(name, t)
			sweeps++
			t = time.Now()
			sel, err := gt.Select(target)
			if err != nil {
				return nil, err
			}
			span("metrics.select_us", t)
			resp.ActualFreqMHz = sel.FreqMHz
			if miss {
				n, err := replayEvaluate(sp, spec, k, req.Items)
				if err != nil {
					return nil, err
				}
				points += n
			}
		}
		t = time.Now()
		if _, err := json.Marshal(&resp); err != nil {
			return nil, err
		}
		jsonT += time.Since(t)
		sp.add("serve.json_us", jsonT)
		c1 := readCounters()
		replica = replica.add(c1.sub(c0))
		sim.access(op)

		// The same request, warm, through the handler and over HTTP.
		rec := httptest.NewRecorder()
		hreq := httptest.NewRequest(http.MethodPost, "/v1/advise", bytes.NewReader(body))
		t = time.Now()
		d.srv.ServeHTTP(rec, hreq)
		handlerT := time.Since(t)
		t = time.Now()
		got, err := d.post(body)
		rtT := time.Since(t)
		r := record{Op: op}
		if err == nil {
			r.OK, r.Bundle, r.Degraded, r.Freq, r.Actual = true, got.Bundle, got.Degraded, got.FreqMHz, got.ActualFreqMHz
		}
		traced = append(traced, r)
		sp.add("serve.handler_us", handlerT)
		sp.add("serve.http_us", rtT-handlerT)
		if c2 := readCounters(); c2.misses() != c1.misses() {
			return nil, fmt.Errorf("a warm replay of op %+v missed a memo: %+v -> %+v", op, c1, c2)
		}
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("handler replay: status %d: %s", rec.Code, rec.Body.String())
		}
		opTotals = append(opTotals, us(jsonT+layersT+rtT-handlerT))
	}
	ops := len(traced)

	// Untraced phase: the end-to-end measurement, on fresh arrivals.
	runtime.GC()
	rt0 := readRuntime()
	ust := makeStep(cfg.Seed, plan, 1, nominalRate, time.Duration(untracedShare*float64(total)))
	bodies := make([][]byte, len(ust.Ops))
	for i, op := range ust.Ops {
		bodies[i] = op.body()
	}
	urecs := d.runStep(ust, bodies)
	rt1 := readRuntime()
	var lat []float64
	for _, r := range urecs {
		lat = append(lat, us(r.Latency()))
		sp.add("serve.wait_us", r.Wait())
	}
	p50 := median(sortedCopy(lat))
	wait := sp.med("serve.wait_us")
	for i := range opTotals {
		opTotals[i] += wait
	}
	snap1 := d.reg.Snapshot()

	res := tracedResult(sp)
	setRuntime(res, rt0, rt1, len(urecs))
	res.set("serve.shed", float64(snap1.CounterTotal("serve_shed_total")-snap0.CounterTotal("serve_shed_total")), "count")
	res.set("serve.degraded", float64(snap1.CounterTotal("serve_degraded_total")-snap0.CounterTotal("serve_degraded_total")), "count")
	advises := snap1.CounterTotal("serve_advises_total") - snap0.CounterTotal("serve_advises_total")
	res.set("model.preds_per_advise", float64(snap1.CounterTotal("serve_predictions_total")-snap0.CounterTotal("serve_predictions_total"))/float64(advises), "count")
	partition := []string{"serve.wait_us", "serve.http_us", "serve.json_us", "features.frommap_us", "model.curve_us", "model.select_us"}
	if kir {
		partition = []string{"serve.wait_us", "serve.http_us", "serve.json_us",
			"kernelir.assemble_us", "kernelir.fingerprint_us", "features.extract_us",
			"model.curve_us", "model.select_us", "sweep.op_us", "metrics.select_us"}
		sp["sweep.op_us"] = append(sp["sweep.hit_us"], sp["sweep.miss_us"]...)
		setRatio(res, "features.hit_ratio", replica.FeatHits, replica.FeatExtractions)
		setRatio(res, "compile.hit_ratio", replica.CompHits-sim.extraCompHits, replica.CompCompiles)
		setRatio(res, "sweep.hit_ratio", int64(sweeps)-replica.SweepEvals, replica.SweepEvals)
		res.set("sweep.evictions", float64(replica.SweepEvicts), "count")
		res.set("hw.points_per_op", float64(points)/float64(ops), "count")
		res.set("hw.evaluate_ns", sp.med("hw.evaluate_ns")*1e3, "ns")
	}
	account(res, sp, partition, opTotals, p50)
	checkCounters(res, "traced-phase", replica, sim.counters())

	o, err := newOracle(d.m)
	if err != nil {
		return nil, err
	}
	for _, rs := range [][]record{traced, urecs} {
		for i := range rs {
			if err := o.check(&rs[i]); err != nil {
				return nil, fmt.Errorf("oracle: %w", err)
			}
			res.Attempted++
			if rs[i].failed() {
				res.Failed++
			}
		}
	}
	res.Correct = res.Correct && res.Failed == 0
	fmt.Printf("# traced ops=%d, untraced requests=%d at %d req/s\n", ops, len(urecs), nominalRate)
	return res, nil
}

// setRatio reports hits/(hits+misses), or 0 when there was no traffic.
func setRatio(res *result, name string, hits, misses int64) {
	r := 0.0
	if hits+misses > 0 {
		r = float64(hits) / float64(hits+misses)
	}
	res.set(name, r, "ratio")
}

// replayEvaluate re-times a sweep miss's evaluation after it happened:
// the compiled-program lookup (now a hit) and the device model at every
// table frequency. It returns the number of points evaluated.
func replayEvaluate(sp spans, spec *hw.Spec, k *kernelir.Kernel, items int64) (int, error) {
	t := time.Now()
	prog, err := compile.Cached(k)
	if err != nil {
		return 0, err
	}
	sp.add("compile.cached_us", time.Since(t))
	w := prog.Workload(items)
	t = time.Now()
	for _, f := range spec.CoreFreqsMHz {
		if _, err := spec.Evaluate(w, f); err != nil {
			return 0, err
		}
	}
	n := len(spec.CoreFreqsMHz)
	sp["hw.evaluate_ns"] = append(sp["hw.evaluate_ns"], us(time.Since(t))/float64(n))
	return n, nil
}

func tracePlace(cfg config) (*result, error) {
	cold := cfg.Workload == "place-cold"
	var refs map[placeOp]chosen
	fleet, err := hw.FleetFromNames(fleetNames, hw.Budget{PowerW: fleetBudgetW})
	if err != nil {
		return nil, err
	}
	if !cold {
		if refs, err = warmRefs(cfg.Seed, fleet); err != nil {
			return nil, err
		}
	}
	if fleet, _, err = setUpPlace(cfg.Seed, cold, 1); err != nil {
		return nil, err
	}
	eng := sweep.Shared()
	total := cfg.Seconds * float64(time.Second)
	sp := spans{}
	var opTotals []float64
	var got []chosen
	var replica counters
	var failed, sweeps, points, candidates int
	runtime.GC()
	t0 := time.Now()
	i := 0
	for ; time.Since(t0) < time.Duration(tracedShare*total); i++ {
		op := placeOpFor(cold, cfg.Seed, i)
		k := suite[op.Bench].Kernel
		c0 := readCounters()
		var sweepT time.Duration
		for _, fd := range fleet.Devices {
			t := time.Now()
			sweep.KeyFor(fd.Spec, k, op.Items)
			sp.add("sweep.key_us", time.Since(t))
			ev := eng.Evaluations()
			t = time.Now()
			if _, err := eng.GroundTruth(fd.Spec, k, op.Items); err != nil {
				return nil, err
			}
			dt := time.Since(t)
			sweepT += dt
			sweeps++
			if eng.Evaluations() == ev {
				sp.add("sweep.hit_us", dt)
				continue
			}
			sp.add("sweep.miss_us", dt)
			n, err := replayEvaluate(sp, fd.Spec, k, op.Items)
			if err != nil {
				return nil, err
			}
			points += n
		}
		sp.add("sweep.op_us", sweepT)
		c1 := readCounters()
		replica = replica.add(c1.sub(c0))
		// BuildGroundTruth's own sweep calls are now hits; time the same
		// hits alone so they can be taken out of its span.
		var rehit time.Duration
		for _, fd := range fleet.Devices {
			t := time.Now()
			if _, err := eng.GroundTruth(fd.Spec, k, op.Items); err != nil {
				return nil, err
			}
			rehit += time.Since(t)
		}
		t := time.Now()
		g, err := placement.BuildGroundTruth(eng, fleet, k, op.Items)
		if err != nil {
			return nil, err
		}
		buildT := time.Since(t) - rehit
		t = time.Now()
		pl, err := g.Select(metrics.StandardTargets[op.Target])
		if err != nil {
			return nil, err
		}
		selT := time.Since(t)
		sp.add("placement.build_us", buildT)
		sp.add("placement.select_us", selT)
		candidates = len(g.Candidates)
		if c2 := readCounters(); c2.misses() != c1.misses() {
			return nil, fmt.Errorf("a repeated placement of op %+v missed the sweep memo", op)
		}
		if cold {
			got = append(got, chosenOf(pl))
		} else if refs[op] != chosenOf(pl) {
			failed++
		}
		opTotals = append(opTotals, us(sweepT+buildT+selT))
	}
	ops := i

	runtime.GC()
	rt0 := readRuntime()
	lat, ugot, ufailed, err := placeLoop(cfg.Seed, untracedShare*cfg.Seconds, ops, fleet, refs)
	if err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	failed += ufailed
	if cold {
		bad, err := coldCheck(cfg.Seed, fleet, 0, append(got, ugot...))
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		failed += bad
	}

	res := tracedResult(sp)
	setRuntime(res, rt0, rt1, len(lat))
	setRatio(res, "sweep.hit_ratio", int64(sweeps)-replica.SweepEvals, replica.SweepEvals)
	res.set("sweep.evictions", float64(replica.SweepEvicts), "count")
	res.set("hw.points_per_op", float64(points)/float64(ops), "count")
	res.set("hw.evaluate_ns", sp.med("hw.evaluate_ns")*1e3, "ns")
	res.set("placement.candidates", float64(candidates), "count")
	account(res, sp, []string{"sweep.op_us", "placement.build_us", "placement.select_us"}, opTotals, 1e3*median(sortedCopy(lat)))
	want := counters{}
	if cold {
		// Every traced sweep is a never-seen key on a memo at its cap:
		// one evaluation and one eviction each, and a compiled-program
		// lookup (a hit, with the optimizer hit that forms its key) for
		// the evaluation and again for its replay.
		n := int64(sweeps)
		want = counters{OptHits: 2 * n, CompHits: 2 * n, SweepEvals: n, SweepEvicts: n}
	}
	checkCounters(res, "traced-phase", replica, want)
	res.Attempted = ops + len(lat)
	res.Failed = failed
	res.Correct = res.Correct && failed == 0
	fmt.Printf("# traced ops=%d, untraced calls=%d\n", ops, len(lat))
	return res, nil
}
