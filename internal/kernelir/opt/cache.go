package opt

import (
	"context"
	"sync/atomic"

	"synergy/internal/kernelir"
	"synergy/internal/memo"
)

// Fingerprint-keyed memo for Optimize, mirroring the features package's
// extraction cache: the same kernel arrives on every hot path (compile,
// feature extraction, sweep, serve), and the pipeline is deterministic,
// so one run per structural fingerprint suffices. Because Optimize is
// idempotent, a hit for an already-optimized kernel returns the kernel
// itself.

const memoCap = 4096

type optimized struct {
	k   *kernelir.Kernel
	res Result
}

// cache is swapped for a fresh memo by ResetCache, which is how the
// reset also zeroes the counters.
var cache atomic.Pointer[memo.Memo[string, optimized]]

func init() { ResetCache() }

// Cached returns Optimize(k)'s kernel, memoized by fingerprint.
func Cached(k *kernelir.Kernel) *kernelir.Kernel {
	nk, _ := CachedResult(k)
	return nk
}

// CachedResult is Optimize memoized by kernelir.Fingerprint. Equal
// fingerprints mean structurally identical kernels, so sharing the
// optimized kernel (and its justification log) across callers is sound.
// Concurrent callers of one fingerprint share a single Optimize run.
// Fail-safe results (Result.Err != nil) are cached too: a kernel that
// defeats the optimizer today will defeat it identically tomorrow.
func CachedResult(k *kernelir.Kernel) (*kernelir.Kernel, Result) {
	o, _ := cache.Load().Do(context.Background(), kernelir.Fingerprint(k), func() (optimized, error) {
		nk, res := Optimize(k)
		return optimized{nk, res}, nil
	})
	return o.k, o.res
}

// CacheStats reports (memoized runs currently held, hits, total runs).
func CacheStats() (size int, hitCount, runCount uint64) {
	m := cache.Load()
	return m.Len(), uint64(m.Hits()), uint64(m.Misses())
}

// ResetCache clears the memo and zeroes its counters. Tests use it to
// make runs deterministic.
func ResetCache() { cache.Store(memo.New[string, optimized](memoCap)) }
