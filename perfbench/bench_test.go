package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// schedule renders every input a run would send for a seed: the nominal
// step's arrivals and request bodies, the kir prefill, and the first
// placement ops.
func schedule(seed int64, kir bool) string {
	var plan *kirPlan
	if kir {
		plan = newKIRPlan(seed)
	}
	st := makeStep(seed, plan, 0, nominalRate, 2*time.Second)
	out := fmt.Sprintf("%v\n%v\n", st.Due, st.Ops)
	for _, op := range st.Ops {
		out += string(op.body()) + "\n"
	}
	if plan != nil {
		out += fmt.Sprintf("%v %v\n", plan.prefill(), plan.sizes)
	}
	for i := 0; i < 200; i++ {
		out += fmt.Sprintf("%v %v %v\n", warmOp(seed, i), coldOp(seed, i), coldPrefillOp(seed, i))
	}
	return out
}

func TestScheduleDeterministic(t *testing.T) {
	for _, kir := range []bool{false, true} {
		a, b := schedule(7, kir), schedule(7, kir)
		if a != b {
			t.Fatalf("kir=%v: same seed gave different schedules", kir)
		}
		if c := schedule(8, kir); a == c {
			t.Fatalf("kir=%v: seeds 7 and 8 gave the same schedule", kir)
		}
	}
}

func TestKIRPopulationExceedsCaps(t *testing.T) {
	p := newKIRPlan(3)
	seen := map[int]bool{}
	for _, v := range p.byRank {
		seen[v] = true
	}
	if len(seen) != kirPopulation || kirPopulation <= memoCap {
		t.Fatalf("population %d distinct, want %d > %d", len(seen), kirPopulation, memoCap)
	}
	names := map[string]bool{}
	for _, op := range p.prefill() {
		names[variantKIR(op.Variant)] = true
	}
	if len(names) != memoCap {
		t.Fatalf("prefill has %d distinct kernels, want %d (every cap full)", len(names), memoCap)
	}
}

func TestColdOpsNeverRepeat(t *testing.T) {
	seen := map[int64]bool{}
	for j := 0; j < coldPrefill; j++ {
		seen[coldPrefillOp(5, j).Items] = true
	}
	for i := 0; i < 100000; i++ {
		n := coldOp(5, i).Items
		if seen[n] {
			t.Fatalf("op %d reuses launch size %d", i, n)
		}
		seen[n] = true
	}
}

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantPct float64
	}{
		{1000, 99}, {2000, 99}, {500, 98}, {100, 90}, {11, 100.0 / 11},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		v, pct, ok := tail(xs)
		if !ok || math.Abs(pct-tc.wantPct) > 1e-9 {
			t.Fatalf("n=%d: pct %v ok %v, want %v", tc.n, pct, ok, tc.wantPct)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < minTail {
			t.Fatalf("n=%d: only %d samples beyond the tail", tc.n, beyond)
		}
	}
	if _, _, ok := tail(make([]float64, minTail)); ok {
		t.Fatal("a tail with fewer than 11 samples")
	}
}

func TestDueTimeAccounting(t *testing.T) {
	msd := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	// Due at 10, connection free at 12, sent at 13, done at 20.
	a := timing{Due: msd(10), Free: msd(12), Start: msd(13), End: msd(20)}
	if a.Latency() != msd(10) || a.RoundTrip() != msd(7) || a.Wait() != msd(3) || a.Lag() != msd(1) {
		t.Fatalf("late connection: %v %v %v %v", a.Latency(), a.RoundTrip(), a.Wait(), a.Lag())
	}
	// Connection free before the request was due: lag counts from due.
	b := timing{Due: msd(10), Free: msd(5), Start: msd(10.5), End: msd(15)}
	if b.Latency() != msd(5) || b.Wait() != msd(0.5) || b.Lag() != msd(0.5) {
		t.Fatalf("early connection: %v %v %v", b.Latency(), b.Wait(), b.Lag())
	}
}

func TestBacklogRule(t *testing.T) {
	stepLen := 4 * time.Second
	// 100 requests due evenly; each starts 0 (keeping up) or i*40ms late
	// (falling further behind).
	mk := func(late func(i int) time.Duration) []timing {
		var ts []timing
		for i := 0; i < 100; i++ {
			due := stepLen * time.Duration(i) / 100
			ts = append(ts, timing{Due: due, Start: due + late(i)})
		}
		return ts
	}
	if backlogGrowing(mk(func(int) time.Duration { return time.Millisecond }), stepLen, conns) {
		t.Fatal("a generator keeping up reported a growing backlog")
	}
	if !backlogGrowing(mk(func(i int) time.Duration { return time.Duration(i) * 40 * time.Millisecond }), stepLen, conns) {
		t.Fatal("a falling-behind generator reported no growing backlog")
	}
}

func TestGoodputRule(t *testing.T) {
	ok := func(rate, tail float64) stepResult { return stepResult{Rate: rate, TailMs: tail, Valid: true} }
	for _, tc := range []struct {
		name  string
		steps []stepResult
		want  float64
	}{
		{"all pass", []stepResult{ok(120, 10), ok(240, 20)}, 240},
		{"unsorted", []stepResult{ok(240, 20), ok(120, 10)}, 240},
		{"latency only: interpolate on log tail", []stepResult{ok(120, 10), ok(240, 25), ok(480, 100)}, 360},
		{"backlog: the capacity it ran out of", []stepResult{ok(120, 10), ok(240, 25),
			{Rate: 480, TailMs: 30, Valid: true, Backlog: true, Throughput: 400}}, 400},
		{"backlog: capacity clamped to the bracket", []stepResult{ok(120, 10), ok(240, 25),
			{Rate: 480, TailMs: 300, Valid: true, Backlog: true, Throughput: 200}}, 240},
		{"failures: no interpolation", []stepResult{ok(120, 10), ok(240, 25),
			{Rate: 480, TailMs: 100, Valid: true, Failed: 1}}, 240},
		{"invalid steps do not count", []stepResult{ok(120, 10), {Rate: 240, TailMs: 500}, ok(360, 30)}, 360},
		{"higher pass after a failure does not count", []stepResult{ok(120, 10),
			{Rate: 240, TailMs: 20, Valid: true, Failed: 2}, ok(360, 30)}, 120},
		{"lowest fails", []stepResult{ok(120, 80)}, 0},
	} {
		if got := goodput(tc.steps, 50); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: goodput %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestLRUModel(t *testing.T) {
	l := newLRU[int](2)
	for _, k := range []int{1, 2, 1, 3, 2, 1} {
		l.touch(k)
	}
	// 1 miss, 2 miss, 1 hit, 3 miss (evicts 2), 2 miss (evicts 1), 1 miss (evicts 3).
	if l.hits != 1 || l.misses != 5 || l.evictions != 3 {
		t.Fatalf("hits %d misses %d evictions %d", l.hits, l.misses, l.evictions)
	}
}

// TestBenchmarkJSON pins BENCHMARK.json at the repository root to the
// metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, program runs %v", names, want)
	}
	e2e := map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v, program reports %v", e2e, endToEnd)
	}
	layers := map[string]string{}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(layers, perLayer()) {
		t.Errorf("per_layer %v, program reports %v", layers, perLayer())
	}
}
