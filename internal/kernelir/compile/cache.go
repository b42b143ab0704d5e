package compile

import (
	"context"
	"sync/atomic"

	"synergy/internal/kernelir"
	"synergy/internal/kernelir/opt"
	"synergy/internal/memo"
)

// DefaultCacheCap bounds the default program cache, mirroring the sweep
// engine's LRU-cap pattern. Programs are small (a slice of closures per
// kernel) and real kernel populations are far below this; the cap exists
// so adversarial churn — fuzzers, ExecuteChecked's per-call instrumented
// clones — cannot grow the cache without bound.
const DefaultCacheCap = 4096

// Option configures a Cache.
type Option func(*Cache)

// WithCacheCap sets the maximum number of cached programs (minimum 1).
func WithCacheCap(n int) Option {
	return func(c *Cache) { c.cap = n }
}

// WithHook installs a function called once per successful compilation
// with the kernel fingerprint, after the program is built and before
// waiters are released. Tests use it to assert exactly-once compilation
// per fingerprint.
func WithHook(fn func(fingerprint string)) Option {
	return func(c *Cache) { c.hook = fn }
}

// Cache memoizes compiled programs by kernel fingerprint (the same
// SHA-256 content identity the sweep engine keys its memo on) in an
// internal/memo LRU: concurrent requests for one fingerprint share a
// single compilation, and failed compilations are not memoized. It is
// safe for concurrent use and implements kernelir.Runner, so an
// instance can be installed as the process executor (the package init
// installs Default()).
type Cache struct {
	cap  int
	hook func(string)
	memo *memo.Memo[string, *Program]
	runs atomic.Int64
}

// NewCache builds a program cache.
func NewCache(opts ...Option) *Cache {
	c := &Cache{cap: DefaultCacheCap}
	for _, o := range opts {
		o(c)
	}
	c.memo = memo.New[string, *Program](max(c.cap, 1))
	c.memo.SetHook(c.hook)
	return c
}

// SetHook replaces the compilation hook (nil disables it).
func (c *Cache) SetHook(fn func(fingerprint string)) { c.memo.SetHook(fn) }

// Get returns the compiled program for the kernel, compiling it at most
// once per fingerprint. Concurrent callers for the same kernel block on
// the single in-flight compilation. Compile errors are returned but not
// memoized, so a later call may retry.
//
// The cache key is the fingerprint of the kernel's optimizer normal
// form: Optimize is deterministic and idempotent, so kernels that are
// structurally equal after optimization — however differently they were
// written — share one compiled program. (For an invalid kernel the
// optimizer fails safe and returns the kernel itself, so the key falls
// back to the raw fingerprint and Compile reports the Validate error.)
func (c *Cache) Get(k *kernelir.Kernel) (*Program, error) {
	return c.memo.Do(context.Background(), kernelir.Fingerprint(opt.Cached(k)), func() (*Program, error) {
		return Compile(k)
	})
}

// RunGrid implements kernelir.Runner: compile (or fetch) and execute.
func (c *Cache) RunGrid(k *kernelir.Kernel, env *kernelir.Bound, items, nx int) error {
	c.runs.Add(1)
	prog, err := c.Get(k)
	if err != nil {
		return err
	}
	return prog.run(env, items, nx, 0)
}

// Compiles returns the number of successful compilations.
func (c *Cache) Compiles() int64 { return c.memo.Misses() }

// Hits returns the number of lookups that found an entry (including
// joins on an in-flight compilation).
func (c *Cache) Hits() int64 { return c.memo.Hits() }

// Evictions returns the number of LRU evictions.
func (c *Cache) Evictions() int64 { return c.memo.Evictions() }

// Runs returns the number of executions dispatched through the cache's
// Runner entry point.
func (c *Cache) Runs() int64 { return c.runs.Load() }

// Len returns the current number of cached entries.
func (c *Cache) Len() int { return c.memo.Len() }

var defaultCache = NewCache()

// Default returns the process-wide program cache that init installs as
// the kernelir Runner.
func Default() *Cache { return defaultCache }

// Cached compiles through the default cache.
func Cached(k *kernelir.Kernel) (*Program, error) { return defaultCache.Get(k) }

// Importing the package switches kernelir execution to compiled code:
// the default cache becomes the process Runner (restore the interpreter
// with kernelir.SetRunner(nil)).
func init() {
	kernelir.SetRunner(defaultCache)
}
