package features

import (
	"fmt"

	"synergy/internal/memo"
)

// DefaultCacheCap bounds the extraction memo, mirroring the sweep
// engine's and the compiled-program cache's LRU-cap pattern: real
// kernel populations are far below this; the cap exists so adversarial
// churn (fuzzers, per-call instrumented clones) cannot grow the cache
// without bound.
const DefaultCacheCap = 4096

// cache memoizes extracted vectors by kernel fingerprint.
var cache = memo.New[string, Vector](DefaultCacheCap)

// SetHook registers fn to be called once per completed (and memoized)
// extraction with the kernel fingerprint, mirroring sweep.Engine's
// hook: tests use it to assert exactly-once extraction. nil removes it.
func SetHook(fn func(fingerprint string)) { cache.SetHook(fn) }

// Extractions returns how many feature vectors have actually been
// computed (cache misses). Requests served from the memo do not count.
func Extractions() int64 { return cache.Misses() }

// CacheHits returns how many Extract calls were served from the memo.
func CacheHits() int64 { return cache.Hits() }

// CacheSize returns the number of memoized vectors.
func CacheSize() int { return cache.Len() }

// ResetCache drops every memoized vector (test isolation).
func ResetCache() { cache.Reset() }

// FromMap builds a Vector from canonical Table-1 feature names
// (features.Names); it rejects unknown names and negative counts. This
// is the serve daemon's JSON input format for pre-extracted kernels.
func FromMap(m map[string]float64) (Vector, error) {
	var v Vector
	fields := [...]*float64{
		&v.IntAdd, &v.IntMul, &v.IntDiv, &v.IntBw,
		&v.FloatAdd, &v.FloatMul, &v.FloatDiv, &v.SF,
		&v.GlAccess, &v.LocAccess,
	}
	for name, val := range m {
		idx := -1
		for i, n := range Names {
			if n == name {
				idx = i
				break
			}
		}
		if idx < 0 {
			return Vector{}, fmt.Errorf("features: unknown feature %q (want one of %v)", name, Names)
		}
		if val < 0 {
			return Vector{}, fmt.Errorf("features: feature %q must be non-negative, got %g", name, val)
		}
		*fields[idx] = val
	}
	return v, nil
}

// ToMap renders the vector under canonical names (the inverse of
// FromMap for all non-negative vectors).
func (v Vector) ToMap() map[string]float64 {
	s := v.Slice()
	m := make(map[string]float64, len(s))
	for i, n := range Names {
		m[n] = s[i]
	}
	return m
}
