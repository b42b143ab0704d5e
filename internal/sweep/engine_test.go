package sweep

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"synergy/internal/benchsuite"
	"synergy/internal/features"
	"synergy/internal/hw"
	"synergy/internal/kernelir"
	"synergy/internal/metrics"
)

// referenceSweep replicates the historical serial ground-truth path
// byte for byte: one Evaluate per table entry, in order, per-item
// scaling applied with the identical expression.
func referenceSweep(t *testing.T, spec *hw.Spec, k *kernelir.Kernel, items int64) *metrics.Sweep {
	t.Helper()
	w, err := features.KernelWorkload(k, items)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]metrics.Point, len(spec.CoreFreqsMHz))
	for i, f := range spec.CoreFreqsMHz {
		m, err := spec.Evaluate(w, f)
		if err != nil {
			t.Fatal(err)
		}
		pts[i] = metrics.Point{
			FreqMHz: f,
			TimeSec: m.TimeSec / float64(items) * 1e9,
			EnergyJ: m.EnergyJ / float64(items) * 1e9,
		}
	}
	s, err := metrics.NewSweep(pts, spec.BaselineCoreMHz())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func sweepsIdentical(a, b *metrics.Sweep) bool {
	if a.Baseline != b.Baseline || len(a.Points) != len(b.Points) {
		return false
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			return false
		}
	}
	return true
}

// TestGoldenEquivalenceSerialVsPooled proves the parallel engine
// returns bit-identical sweeps to the serial path for every device spec
// and every benchmark in the suite.
func TestGoldenEquivalenceSerialVsPooled(t *testing.T) {
	t.Parallel()
	for _, devName := range []string{"v100", "a100", "mi100", "xeon"} {
		spec, err := hw.SpecByName(devName)
		if err != nil {
			t.Fatal(err)
		}
		serial := NewEngine(WithWorkers(1))
		pooled := NewEngine(WithWorkers(8))
		for _, name := range benchsuite.Names() {
			b, err := benchsuite.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceSweep(t, spec, b.Kernel, b.CharItems)
			got1, err := serial.GroundTruth(spec, b.Kernel, b.CharItems)
			if err != nil {
				t.Fatalf("%s/%s serial: %v", devName, name, err)
			}
			got8, err := pooled.GroundTruth(spec, b.Kernel, b.CharItems)
			if err != nil {
				t.Fatalf("%s/%s pooled: %v", devName, name, err)
			}
			if !sweepsIdentical(want, got1) {
				t.Errorf("%s/%s: serial engine differs from reference", devName, name)
			}
			if !sweepsIdentical(want, got8) {
				t.Errorf("%s/%s: pooled engine differs from reference", devName, name)
			}
		}
	}
}

// TestMemoizationSecondRequestFree shows the second request for a key
// performs zero evaluations: the hook fires once and the evaluation
// counter stays at one, while both responses carry identical data.
func TestMemoizationSecondRequestFree(t *testing.T) {
	t.Parallel()
	spec := hw.V100()
	b, err := benchsuite.ByName("black_scholes")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	hookCalls := map[Key]int{}
	eng := NewEngine(WithHook(func(k Key) {
		mu.Lock()
		hookCalls[k]++
		mu.Unlock()
	}))
	first, err := eng.GroundTruth(spec, b.Kernel, b.CharItems)
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.GroundTruth(spec, b.Kernel, b.CharItems)
	if err != nil {
		t.Fatal(err)
	}
	if n := eng.Evaluations(); n != 1 {
		t.Errorf("evaluations = %d, want 1", n)
	}
	key := KeyFor(spec, b.Kernel, b.CharItems)
	if hookCalls[key] != 1 || len(hookCalls) != 1 {
		t.Errorf("hook calls = %v, want exactly one call for %s", hookCalls, key)
	}
	if !sweepsIdentical(first, second) {
		t.Error("cached sweep differs from computed sweep")
	}
	// Different launch size is a different content key.
	if _, err := eng.GroundTruth(spec, b.Kernel, b.CharItems/2); err != nil {
		t.Fatal(err)
	}
	if n := eng.Evaluations(); n != 2 {
		t.Errorf("evaluations after new key = %d, want 2", n)
	}
}

// TestSingleflightConcurrentCallers launches many goroutines on the
// same key and checks they share one computation (run under -race).
func TestSingleflightConcurrentCallers(t *testing.T) {
	t.Parallel()
	spec := hw.V100()
	b, err := benchsuite.ByName("matmul")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(WithWorkers(4))
	want := referenceSweep(t, spec, b.Kernel, b.CharItems)
	const callers = 16
	var wg sync.WaitGroup
	results := make([]*metrics.Sweep, callers)
	errs := make([]error, callers)
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = eng.GroundTruth(spec, b.Kernel, b.CharItems)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !sweepsIdentical(want, results[i]) {
			t.Errorf("caller %d: sweep differs from reference", i)
		}
	}
	if n := eng.Evaluations(); n != 1 {
		t.Errorf("evaluations = %d, want 1 (singleflight)", n)
	}
}

// TestConcurrentDistinctKeys exercises the cache under concurrent
// misses for different keys (race detector coverage of the entry map).
func TestConcurrentDistinctKeys(t *testing.T) {
	t.Parallel()
	spec := hw.MI100()
	names := benchsuite.Names()
	eng := NewEngine()
	err := eng.ForEach(len(names), func(i int) error {
		b, err := benchsuite.ByName(names[i])
		if err != nil {
			return err
		}
		_, err = eng.GroundTruth(spec, b.Kernel, b.CharItems)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := eng.Evaluations(); n != int64(len(names)) {
		t.Errorf("evaluations = %d, want %d", n, len(names))
	}
	if n := eng.CacheSize(); n != len(names) {
		t.Errorf("cache size = %d, want %d", n, len(names))
	}
}

// TestNonPositiveItemsRejected is the regression test for the ±Inf/NaN
// poisoning path: a non-positive launch size must fail loudly.
func TestNonPositiveItemsRejected(t *testing.T) {
	t.Parallel()
	spec := hw.V100()
	b, err := benchsuite.ByName("vec_add")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	for _, items := range []int64{0, -1, -1 << 40} {
		_, err := eng.GroundTruth(spec, b.Kernel, items)
		if err == nil {
			t.Fatalf("items=%d: expected error", items)
		}
		if !strings.Contains(err.Error(), "launch size must be positive") {
			t.Errorf("items=%d: undescriptive error %q", items, err)
		}
	}
	if n := eng.Evaluations(); n != 0 {
		t.Errorf("rejected requests performed %d evaluations", n)
	}
}

// TestErrorsNotMemoized: a failing sweep must not poison the cache.
func TestErrorsNotMemoized(t *testing.T) {
	t.Parallel()
	// A kernel that performs no work fails workload validation.
	kb := kernelir.NewBuilder("noop")
	in := kb.BufferF32("in", kernelir.Read)
	_ = in
	k, err := kb.Build()
	if err != nil {
		// Builder may reject empty bodies outright; nothing to test then.
		t.Skipf("cannot build empty kernel: %v", err)
	}
	eng := NewEngine()
	if _, err := eng.GroundTruth(hw.V100(), k, 1<<10); err == nil {
		t.Skip("empty kernel unexpectedly evaluates; nothing to assert")
	}
	if n := eng.CacheSize(); n != 0 {
		t.Errorf("failed sweep left %d cache entries", n)
	}
}

// TestInvalidate drops memoized sweeps so the next request recomputes.
func TestInvalidate(t *testing.T) {
	t.Parallel()
	spec := hw.A100()
	b, err := benchsuite.ByName("median")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	if _, err := eng.GroundTruth(spec, b.Kernel, b.CharItems); err != nil {
		t.Fatal(err)
	}
	eng.Invalidate()
	if n := eng.CacheSize(); n != 0 {
		t.Fatalf("cache size after invalidate = %d", n)
	}
	if _, err := eng.GroundTruth(spec, b.Kernel, b.CharItems); err != nil {
		t.Fatal(err)
	}
	if n := eng.Evaluations(); n != 2 {
		t.Errorf("evaluations = %d, want 2 after invalidation", n)
	}
}

// TestFingerprintContentSensitivity: distinct kernels get distinct
// fingerprints; the same kernel fingerprint is stable.
func TestFingerprintContentSensitivity(t *testing.T) {
	t.Parallel()
	a, err := benchsuite.ByName("vec_add")
	if err != nil {
		t.Fatal(err)
	}
	b, err := benchsuite.ByName("matmul")
	if err != nil {
		t.Fatal(err)
	}
	if kernelir.Fingerprint(a.Kernel) == kernelir.Fingerprint(b.Kernel) {
		t.Error("different kernels share a fingerprint")
	}
	if kernelir.Fingerprint(a.Kernel) != kernelir.Fingerprint(a.Kernel) {
		t.Error("fingerprint not stable")
	}
}

// TestForEachPropagatesError: the parallel-for reports the failure.
func TestForEachPropagatesError(t *testing.T) {
	t.Parallel()
	eng := NewEngine(WithWorkers(4))
	wantErr := "boom at 7"
	err := eng.ForEach(32, func(i int) error {
		if i == 7 {
			return &indexError{msg: wantErr}
		}
		return nil
	})
	if err == nil || err.Error() != wantErr {
		t.Fatalf("error = %v, want %q", err, wantErr)
	}
}

type indexError struct{ msg string }

func (e *indexError) Error() string { return e.msg }

// TestSpecVariantGetsItsOwnSweep: one engine must not serve a spec's
// memoized sweep for a different spec that shares its name and clock
// table. Regression: the key once covered only the name and the shape of
// the clock table, so a V100 with halved bandwidth got the stock V100's
// sweep (top-point time 0.01338 instead of 0.02664).
func TestSpecVariantGetsItsOwnSweep(t *testing.T) {
	t.Parallel()
	b, err := benchsuite.ByName("vec_add")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	if _, err := eng.GroundTruth(hw.V100(), b.Kernel, b.CharItems); err != nil {
		t.Fatal(err)
	}
	slow := hw.V100()
	slow.MemBWBytes /= 2
	got, err := eng.GroundTruth(slow, b.Kernel, b.CharItems)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewEngine().GroundTruth(slow, b.Kernel, b.CharItems)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("halved-bandwidth V100 got top-point time %g, a fresh engine gives %g",
			got.Points[len(got.Points)-1].TimeSec, want.Points[len(want.Points)-1].TimeSec)
	}
	if n := eng.Evaluations(); n != 2 {
		t.Fatalf("evaluations = %d, want 2 (one per distinct spec)", n)
	}
}

// TestKeyForCoversEverySpecField: changing any single field of a spec —
// every element of the clock table included — changes its key, while a
// separately built equal spec keeps it. The test walks hw.Spec by
// reflection, so a field added later without a place in the key fails
// here.
func TestKeyForCoversEverySpecField(t *testing.T) {
	t.Parallel()
	b, err := benchsuite.ByName("vec_add")
	if err != nil {
		t.Fatal(err)
	}
	base := KeyFor(hw.V100(), b.Kernel, b.CharItems)
	if KeyFor(hw.V100(), b.Kernel, b.CharItems) != base {
		t.Fatal("equal specs got different keys")
	}
	if s := base.String(); !strings.HasPrefix(s, hw.V100().Name+"/") || strings.ContainsRune(s, 0) {
		t.Fatalf("Key.String() = %q, want a readable <device>/<fingerprint>/<items>", s)
	}
	typ := reflect.TypeOf(hw.Spec{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		var variants []*hw.Spec
		switch f.Type.Kind() {
		case reflect.String:
			s := hw.V100()
			reflect.ValueOf(s).Elem().Field(i).SetString(s.Name + "x")
			variants = append(variants, s)
		case reflect.Int:
			s := hw.V100()
			v := reflect.ValueOf(s).Elem().Field(i)
			v.SetInt(v.Int() + 1)
			variants = append(variants, s)
		case reflect.Float64:
			s := hw.V100()
			v := reflect.ValueOf(s).Elem().Field(i)
			v.SetFloat(v.Float()*2 + 1)
			variants = append(variants, s)
		case reflect.Slice:
			for j := range hw.V100().CoreFreqsMHz {
				s := hw.V100()
				s.CoreFreqsMHz = append([]int(nil), s.CoreFreqsMHz...)
				s.CoreFreqsMHz[j]++
				variants = append(variants, s)
			}
			s := hw.V100()
			s.CoreFreqsMHz = append(append([]int(nil), s.CoreFreqsMHz...), 9999)
			variants = append(variants, s)
		default:
			t.Fatalf("field %s has kind %s, which this test does not perturb", f.Name, f.Type.Kind())
		}
		for _, s := range variants {
			if KeyFor(s, b.Kernel, b.CharItems) == base {
				t.Errorf("changing %s leaves the sweep key unchanged", f.Name)
			}
		}
	}
}

// TestSpecInternStaysBounded: the spec intern table never holds more
// than specsCap contents, and equal specs keep sharing one identity.
func TestSpecInternStaysBounded(t *testing.T) {
	b, err := benchsuite.ByName("vec_add")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= specsCap; i++ {
		s := hw.V100()
		s.AreaMM2 = float64(i) + 0.5
		KeyFor(s, b.Kernel, b.CharItems)
	}
	specsMu.Lock()
	n := len(specs)
	specsMu.Unlock()
	if n > specsCap {
		t.Fatalf("spec intern table holds %d contents, cap is %d", n, specsCap)
	}
	if KeyFor(hw.V100(), b.Kernel, b.CharItems) != KeyFor(hw.V100(), b.Kernel, b.CharItems) {
		t.Fatal("equal specs got different keys")
	}
}
