// Package sweep provides the shared frequency-sweep engine: every
// ground-truth evaluation of a (device spec × kernel × launch size)
// triple across the device's frequency table goes through one
// concurrency-safe service. The engine fans the per-frequency
// evaluations out over a bounded worker pool, memoizes completed sweeps
// under a content key (bounded LRU), and de-duplicates concurrent
// requests for the same sweep with singleflight semantics — so the
// figures, target selections and ML training sets that are all derived
// from the same sweeps share one computation instead of re-running it
// serially at every call site.
package sweep

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"synergy/internal/hw"
	"synergy/internal/kernelir"
	"synergy/internal/kernelir/compile"
	"synergy/internal/memo"
	"synergy/internal/metrics"
	"synergy/internal/telemetry"
)

// DefaultCacheCap is the default memo-cache entry cap. It is far above
// anything the benchmark suite or the report pipeline allocates (a few
// hundred keys), so bounded eviction never perturbs existing flows; it
// exists to stop a long-running service from growing without bound.
const DefaultCacheCap = 4096

// Key is the content key a memoized sweep is stored under: the device
// spec, the kernel fingerprint (a hash of its full disassembly, so any
// change to the instruction stream, parameters or traffic factor yields
// a new key) and the launch size. Device is the spec's name; the key
// also carries the exact content of every other spec field, so two
// specs that differ anywhere never share a sweep.
type Key struct {
	Device string
	Kernel string
	Items  int64
	spec   *specID
}

// String renders the key for diagnostics.
func (k Key) String() string {
	return fmt.Sprintf("%s/%s/%d", k.Device, k.Kernel, k.Items)
}

// specID is the exact content of an hw.Spec apart from its name, as a
// comparable value: integers as they are, floats by bit pattern (so -0
// and +0 stay distinct) and the clock table as its bytes.
type specID struct {
	vendor, class, memFreq, defaultCore, sms, lanes int
	floats                                          [14]uint64
	table                                           string
}

// specs interns spec contents, so all keys of one spec share one copy
// of its clock table and compare by pointer. Past specsCap distinct
// contents the table is cleared; a spec seen again afterwards gets a
// new identity, which costs sweep misses, never wrong answers.
const specsCap = 1024

var (
	specsMu sync.Mutex
	specs   = map[specID]*specID{}
)

func internSpec(s *hw.Spec) *specID {
	freqs := s.CoreFreqsMHz
	id := specID{
		vendor: int(s.Vendor), class: int(s.Class), memFreq: s.MemFreqMHz,
		defaultCore: s.DefaultCoreMHz, sms: s.SMs, lanes: s.LanesPerSM,
		// A view of the caller's table for the lookup; only a new
		// entry stores a copy.
		table: unsafe.String((*byte)(unsafe.Pointer(unsafe.SliceData(freqs))), len(freqs)*int(unsafe.Sizeof(0))),
	}
	for i, v := range [...]float64{s.AreaMM2, s.MemBWBytes, s.BWKneeFrac, s.LaunchOverheadSec, s.ClockSetOverheadSec,
		s.IdlePowerW, s.TDPWatts, s.VMinVolts, s.VMaxVolts, s.VFloorFrac,
		s.CoreDynCoeff, s.MemDynCoeff, s.LeakCoeff, s.BaseActivity} {
		id.floats[i] = math.Float64bits(v)
	}
	specsMu.Lock()
	defer specsMu.Unlock()
	if p, ok := specs[id]; ok {
		return p
	}
	if len(specs) >= specsCap {
		clear(specs)
	}
	p := new(specID)
	*p = id
	p.table = strings.Clone(id.table)
	specs[*p] = p
	return p
}

// Engine is a concurrency-safe, memoizing parallel sweep service.
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	workers  int
	cacheCap int
	hook     func(Key)
	memo     *memo.Memo[Key, *metrics.Sweep]

	mu         sync.Mutex
	tel        *telemetry.Registry
	telEvicted int64 // memo evictions already counted into tel
}

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers bounds the evaluation pool to n workers (n >= 1). One
// worker reproduces the serial evaluation order exactly; the default is
// GOMAXPROCS.
func WithWorkers(n int) Option {
	return func(e *Engine) {
		if n >= 1 {
			e.workers = n
		}
	}
}

// WithCacheCap bounds the memo cache to n entries with LRU eviction
// (n <= 0 removes the bound). The default is DefaultCacheCap.
func WithCacheCap(n int) Option {
	return func(e *Engine) { e.cacheCap = n }
}

// WithHook registers fn to be called once per completed cache-miss
// evaluation, with the evaluated key. Hooks observe how often the
// engine really computes — the call-count assertion tools build on it.
func WithHook(fn func(Key)) Option {
	return func(e *Engine) { e.hook = fn }
}

// NewEngine constructs an engine with an empty cache.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{workers: runtime.GOMAXPROCS(0), cacheCap: DefaultCacheCap}
	for _, o := range opts {
		o(e)
	}
	e.memo = memo.New[Key, *metrics.Sweep](e.cacheCap)
	e.memo.SetHook(e.hook)
	return e
}

// shared is the process-wide engine used by the package-level helpers;
// all production callers route through it, which is what makes repeated
// sweeps of the same (spec, kernel, items) free across subsystems.
var shared = NewEngine()

// Shared returns the process-wide engine.
func Shared() *Engine { return shared }

// SetHook replaces the engine's evaluation hook (nil to remove). Meant
// for diagnostics and call-count assertions on the shared engine.
func (e *Engine) SetHook(fn func(Key)) { e.memo.SetHook(fn) }

// SetTelemetry attaches a telemetry registry (nil detaches): requests
// are counted as synergy_sweep_requests_total{result="hit"|"miss"} —
// singleflight waiters count as hits, since they share the miss's
// computation — and LRU evictions as synergy_sweep_evictions_total.
// A miss is a completed computation, so the miss counter equals
// Evaluations() and the eviction counter equals Evictions(); failed
// evaluations count as neither (they are not memoized).
func (e *Engine) SetTelemetry(r *telemetry.Registry) {
	e.mu.Lock()
	e.tel = r
	e.telEvicted = e.memo.Evictions()
	e.mu.Unlock()
}

// count records one finished request into the attached registry: a hit
// when it did not compute, a miss when its computation succeeded, and
// the evictions the memo has made since the last request.
func (e *Engine) count(computed bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.tel == nil {
		return
	}
	switch {
	case !computed:
		e.tel.Counter("synergy_sweep_requests_total", "result", "hit").Inc()
	case err == nil:
		e.tel.Counter("synergy_sweep_requests_total", "result", "miss").Inc()
	}
	if n := e.memo.Evictions(); n > e.telEvicted {
		e.tel.Counter("synergy_sweep_evictions_total").Add(n - e.telEvicted)
		e.telEvicted = n
	}
}

// Evaluations returns how many sweeps the engine has actually computed
// (cache misses). Requests served from the cache do not count.
func (e *Engine) Evaluations() int64 { return e.memo.Misses() }

// Evictions returns how many memoized sweeps the LRU bound has evicted.
func (e *Engine) Evictions() int64 { return e.memo.Evictions() }

// CacheSize returns the number of memoized sweeps.
func (e *Engine) CacheSize() int { return e.memo.Len() }

// Invalidate drops every memoized sweep. In-flight evaluations complete
// normally but are not re-inserted for new requesters. Invalidation is
// not eviction: the Evictions counter is untouched.
func (e *Engine) Invalidate() { e.memo.Reset() }

// KeyFor returns the content key the engine would use for a request.
func KeyFor(spec *hw.Spec, k *kernelir.Kernel, items int64) Key {
	return Key{Device: spec.Name, Kernel: kernelir.Fingerprint(k), Items: items, spec: internSpec(spec)}
}

// GroundTruth measures (through the device model) the per-item
// time/energy of the kernel at every supported frequency. Points carry
// per-item units: ns in TimeSec, nJ in EnergyJ — target selection is
// invariant to this uniform scaling. Results are memoized; concurrent
// callers of the same key share one computation. The returned sweep is
// a private copy the caller may use freely.
func (e *Engine) GroundTruth(spec *hw.Spec, k *kernelir.Kernel, items int64) (*metrics.Sweep, error) {
	return e.GroundTruthContext(context.Background(), spec, k, items)
}

// GroundTruthContext is GroundTruth with cancellation: a canceled
// context abandons the request (waiters stop waiting; a canceled
// evaluation stops scheduling its remaining frequency points and is not
// memoized).
func (e *Engine) GroundTruthContext(ctx context.Context, spec *hw.Spec, k *kernelir.Kernel, items int64) (*metrics.Sweep, error) {
	if spec == nil || k == nil {
		return nil, fmt.Errorf("sweep: nil spec or kernel")
	}
	if items <= 0 {
		return nil, fmt.Errorf("sweep: kernel %q: launch size must be positive, got %d items", k.Name, items)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	computed := false
	sw, err := e.memo.Do(ctx, KeyFor(spec, k, items), func() (*metrics.Sweep, error) {
		computed = true
		return e.evaluate(ctx, spec, k, items)
	})
	e.count(computed, err)
	if err != nil {
		return nil, err
	}
	return cloneSweep(sw), nil
}

// evaluate computes one sweep, fanning the frequency table out over the
// worker pool. The per-point arithmetic matches the historical serial
// path exactly, so parallel results are bit-identical to serial ones.
func (e *Engine) evaluate(ctx context.Context, spec *hw.Spec, k *kernelir.Kernel, items int64) (*metrics.Sweep, error) {
	// Go through the compiled-program cache: the program carries the
	// feature vector extracted at compile time, so repeated sweeps of the
	// same kernel skip re-walking the body. Compile and KernelWorkload
	// both bottom out in Validate, so error behaviour is unchanged.
	prog, err := compile.Cached(k)
	if err != nil {
		return nil, err
	}
	w := prog.Workload(items)
	pts := make([]metrics.Point, len(spec.CoreFreqsMHz))
	err = e.ForEachContext(ctx, len(pts), func(i int) error {
		f := spec.CoreFreqsMHz[i]
		m, err := spec.Evaluate(w, f)
		if err != nil {
			return err
		}
		pts[i] = metrics.Point{
			FreqMHz: f,
			TimeSec: m.TimeSec / float64(items) * 1e9,
			EnergyJ: m.EnergyJ / float64(items) * 1e9,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return metrics.NewSweep(pts, spec.BaselineCoreMHz())
}

// ForEach runs fn(0..n-1) across the engine's worker pool and returns
// the first error (remaining indices are skipped once an error occurs).
// It is the bounded parallel-for the engine itself uses for frequency
// fan-out, exported so batch callers (prefetching a benchmark suite,
// characterising many kernels) can share the same bound.
func (e *Engine) ForEach(n int, fn func(i int) error) error {
	return e.ForEachContext(context.Background(), n, fn)
}

// ForEachContext is ForEach with cancellation: once the context is
// canceled no further indices are scheduled, in-flight callbacks finish,
// and the context error is returned (unless a callback failed first).
func (e *Engine) ForEachContext(ctx context.Context, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers := e.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		firstEr error
		failed  atomic.Bool
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := fn(i); err != nil {
					errOnce.Do(func() { firstEr = err })
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstEr != nil {
		return firstEr
	}
	return ctx.Err()
}

// Prefetch warms the cache with the sweeps of every kernel at one
// launch size, computing whole sweeps concurrently. Subsequent
// GroundTruth calls for these keys are cache hits.
func (e *Engine) Prefetch(spec *hw.Spec, ks []*kernelir.Kernel, items int64) error {
	return e.ForEach(len(ks), func(i int) error {
		_, err := e.GroundTruth(spec, ks[i], items)
		return err
	})
}

// cloneSweep returns an independent copy so memoized points can never
// be mutated by a caller.
func cloneSweep(s *metrics.Sweep) *metrics.Sweep {
	cp := *s
	cp.Points = make([]metrics.Point, len(s.Points))
	copy(cp.Points, s.Points)
	return &cp
}

// GroundTruth evaluates through the process-wide shared engine.
func GroundTruth(spec *hw.Spec, k *kernelir.Kernel, items int64) (*metrics.Sweep, error) {
	return shared.GroundTruth(spec, k, items)
}

// GroundTruthContext evaluates through the process-wide shared engine
// with cancellation (see Engine.GroundTruthContext).
func GroundTruthContext(ctx context.Context, spec *hw.Spec, k *kernelir.Kernel, items int64) (*metrics.Sweep, error) {
	return shared.GroundTruthContext(ctx, spec, k, items)
}

// Prefetch warms the process-wide shared engine.
func Prefetch(spec *hw.Spec, ks []*kernelir.Kernel, items int64) error {
	return shared.Prefetch(spec, ks, items)
}

// ForEach runs a bounded parallel-for on the shared engine's pool.
func ForEach(n int, fn func(i int) error) error {
	return shared.ForEach(n, fn)
}
