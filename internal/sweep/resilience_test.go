package sweep

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"synergy/internal/benchsuite"
	"synergy/internal/hw"
	"synergy/internal/telemetry"
)

// TestLRUEvictionBoundsCache: with a cap of 2, sweeping three distinct
// keys evicts the least recently used; re-requesting the evicted key
// recomputes, while the surviving keys stay free.
func TestLRUEvictionBoundsCache(t *testing.T) {
	t.Parallel()
	spec := hw.V100()
	names := []string{"vec_add", "matmul", "black_scholes"}
	eng := NewEngine(WithCacheCap(2), WithWorkers(1))
	for _, name := range names {
		b, err := benchsuite.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.GroundTruth(spec, b.Kernel, b.CharItems); err != nil {
			t.Fatal(err)
		}
	}
	if n := eng.CacheSize(); n != 2 {
		t.Fatalf("cache size = %d, want 2 (capped)", n)
	}
	if n := eng.Evictions(); n != 1 {
		t.Fatalf("evictions = %d, want 1", n)
	}
	// vec_add was evicted (oldest); matmul and black_scholes are hits.
	for _, name := range names[1:] {
		b, _ := benchsuite.ByName(name)
		if _, err := eng.GroundTruth(spec, b.Kernel, b.CharItems); err != nil {
			t.Fatal(err)
		}
	}
	if n := eng.Evaluations(); n != 3 {
		t.Fatalf("evaluations = %d, want 3 (recent keys served from cache)", n)
	}
	b, _ := benchsuite.ByName("vec_add")
	if _, err := eng.GroundTruth(spec, b.Kernel, b.CharItems); err != nil {
		t.Fatal(err)
	}
	if n := eng.Evaluations(); n != 4 {
		t.Fatalf("evaluations = %d, want 4 (evicted key recomputed)", n)
	}
}

// TestLRUHitRefreshesRecency: touching the oldest key protects it from
// the next eviction.
func TestLRUHitRefreshesRecency(t *testing.T) {
	t.Parallel()
	spec := hw.A100()
	eng := NewEngine(WithCacheCap(2), WithWorkers(1))
	a, _ := benchsuite.ByName("vec_add")
	b, _ := benchsuite.ByName("matmul")
	c, _ := benchsuite.ByName("median")
	for _, bench := range []*benchsuite.Benchmark{a, b} {
		if _, err := eng.GroundTruth(spec, bench.Kernel, bench.CharItems); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a: it becomes MRU, so inserting c evicts b.
	if _, err := eng.GroundTruth(spec, a.Kernel, a.CharItems); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.GroundTruth(spec, c.Kernel, c.CharItems); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.GroundTruth(spec, a.Kernel, a.CharItems); err != nil {
		t.Fatal(err)
	}
	if n := eng.Evaluations(); n != 3 {
		t.Fatalf("evaluations = %d, want 3 (refreshed key must survive eviction)", n)
	}
}

// TestDefaultCapDoesNotEvict: the default cap is far above the whole
// benchmark suite across all device specs, so nothing is evicted in the
// existing flows.
func TestDefaultCapDoesNotEvict(t *testing.T) {
	t.Parallel()
	eng := NewEngine()
	for _, devName := range []string{"v100", "mi100"} {
		spec, err := hw.SpecByName(devName)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range benchsuite.Names() {
			b, err := benchsuite.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.GroundTruth(spec, b.Kernel, b.CharItems); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := eng.Evictions(); n != 0 {
		t.Fatalf("default cap evicted %d entries", n)
	}
}

// TestForEachContextCancelStopsScheduling: after cancellation, no new
// indices are dispatched — the canceled parallel-for completes quickly
// with the context error instead of grinding through the whole range.
func TestForEachContextCancelStopsScheduling(t *testing.T) {
	t.Parallel()
	eng := NewEngine(WithWorkers(4))
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	const n = 10_000
	err := eng.ForEachContext(ctx, n, func(i int) error {
		if started.Add(1) == 8 {
			cancel()
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The four workers may each have had one callback in flight at
	// cancellation; far fewer than n items must have started.
	if s := started.Load(); s >= n/2 {
		t.Fatalf("%d of %d items started after cancel", s, n)
	}
	cancel()
}

// TestForEachContextCallbackErrorWins: a callback failure is reported
// in preference to a later cancellation.
func TestForEachContextCallbackErrorWins(t *testing.T) {
	t.Parallel()
	eng := NewEngine(WithWorkers(2))
	boom := errors.New("boom")
	err := eng.ForEachContext(context.Background(), 16, func(i int) error {
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want callback error", err)
	}
}

// TestGroundTruthContextPreCanceled: a canceled context fails fast with
// no evaluation and no cache pollution.
func TestGroundTruthContextPreCanceled(t *testing.T) {
	t.Parallel()
	spec := hw.V100()
	b, err := benchsuite.ByName("vec_add")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.GroundTruthContext(ctx, spec, b.Kernel, b.CharItems); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := eng.Evaluations(); n != 0 {
		t.Errorf("canceled request performed %d evaluations", n)
	}
	if n := eng.CacheSize(); n != 0 {
		t.Errorf("canceled request left %d cache entries", n)
	}
	// The engine stays healthy for later, uncanceled requests.
	if _, err := eng.GroundTruth(spec, b.Kernel, b.CharItems); err != nil {
		t.Fatal(err)
	}
}

// TestTelemetryMatchesCounters: the attached registry's request and
// eviction counters agree with the engine's own counters, and evictions
// made before the registry was attached are not reported.
func TestTelemetryMatchesCounters(t *testing.T) {
	t.Parallel()
	spec := hw.V100()
	eng := NewEngine(WithCacheCap(2), WithWorkers(1))
	sweep := func(name string) {
		b, err := benchsuite.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.GroundTruth(spec, b.Kernel, b.CharItems); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"vec_add", "matmul", "median"} {
		sweep(name)
	}
	reg := telemetry.NewRegistry()
	eng.SetTelemetry(reg)
	evals0, evictions0 := eng.Evaluations(), eng.Evictions()
	// Resident: median, matmul. median hits; vec_add, black_scholes and
	// median again each miss and evict one entry.
	for _, name := range []string{"median", "vec_add", "black_scholes", "median"} {
		sweep(name)
	}
	snap := reg.Snapshot()
	if got, want := snap.CounterValue("synergy_sweep_requests_total", "result", "miss"), eng.Evaluations()-evals0; got != want || got != 3 {
		t.Errorf("miss counter = %d, want %d = 3 new evaluations", got, want)
	}
	if got := snap.CounterValue("synergy_sweep_requests_total", "result", "hit"); got != 1 {
		t.Errorf("hit counter = %d, want 1", got)
	}
	if got, want := snap.CounterTotal("synergy_sweep_evictions_total"), eng.Evictions()-evictions0; got != want || got != 3 {
		t.Errorf("eviction counter = %d, want %d = 3 evictions since attaching", got, want)
	}
}
