package features

import (
	"strings"
	"sync"
	"testing"

	"synergy/internal/kernelir"
	"synergy/internal/memo"
)

// Extraction must run exactly once per kernel fingerprint: the second
// Extract is a memo hit that skips Validate and BuildLoopTree.
func TestExtractMemoizedExactlyOnce(t *testing.T) {
	k := buildSaxpy(t)
	fp := kernelir.Fingerprint(k)

	ResetCache()
	var mu sync.Mutex
	count := map[string]int{}
	SetHook(func(fp string) {
		mu.Lock()
		count[fp]++
		mu.Unlock()
	})
	defer SetHook(nil)

	first, err := Extract(k)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := Extract(k)
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatalf("repeat %d: vector changed: %+v != %+v", i, again, first)
		}
	}
	if count[fp] != 1 {
		t.Fatalf("kernel extracted %d times, want exactly 1", count[fp])
	}

	// A content-identical kernel built separately shares the fingerprint
	// and therefore the memo entry.
	if _, err := Extract(buildSaxpy(t)); err != nil {
		t.Fatal(err)
	}
	if count[fp] != 1 {
		t.Fatalf("identical kernel re-extracted (count %d), want memo hit", count[fp])
	}
}

// Failed extractions must not be memoized; kernels here are built raw
// so Validate fails (register never written).
func TestExtractErrorNotMemoized(t *testing.T) {
	k := &kernelir.Kernel{Name: "broken", NumIntRegs: 1, NumFloatRegs: 1,
		Body: []kernelir.Instr{{Op: kernelir.OpStoreGF, A: 0, B: 0, C: 0}}}
	ResetCache()
	if _, err := Extract(k); err == nil {
		t.Fatal("invalid kernel extracted without error")
	}
	if CacheSize() != 0 {
		t.Fatalf("failed extraction memoized (cache size %d)", CacheSize())
	}
	if _, err := Extract(k); err == nil {
		t.Fatal("invalid kernel must keep failing")
	}
}

func TestFromMapRoundTrip(t *testing.T) {
	v := Vector{IntAdd: 3, FloatMul: 7, GlAccess: 2.5, SF: 1}
	got, err := FromMap(v.ToMap())
	if err != nil {
		t.Fatal(err)
	}
	if got != v {
		t.Fatalf("round trip %+v != %+v", got, v)
	}
	// Partial maps default missing classes to zero.
	got, err = FromMap(map[string]float64{"k_float_add": 4})
	if err != nil {
		t.Fatal(err)
	}
	if (got != Vector{FloatAdd: 4}) {
		t.Fatalf("partial map = %+v", got)
	}
	if _, err := FromMap(map[string]float64{"k_bogus": 1}); err == nil || !strings.Contains(err.Error(), "unknown feature") {
		t.Errorf("unknown feature accepted: %v", err)
	}
	if _, err := FromMap(map[string]float64{"k_sf": -1}); err == nil {
		t.Error("negative count accepted")
	}
}

// The LRU bound must hold under churn of unique fingerprints.
func TestExtractCacheBounded(t *testing.T) {
	// Temporarily shrink the cap.
	old := cache
	cache = memo.New[string, Vector](8)
	defer func() { cache = old }()
	for i := 0; i < 40; i++ {
		b := kernelir.NewBuilder("churn")
		out := b.BufferF32("out", kernelir.Write)
		gid := b.GlobalID()
		acc := b.ConstF(0)
		one := b.ConstF(1)
		b.Repeat(i+1, func() {
			s := b.AddF(acc, one)
			b.MoveF(acc, s)
		})
		b.StoreF(out, gid, acc)
		if _, err := Extract(b.MustBuild()); err != nil {
			t.Fatal(err)
		}
	}
	if n := CacheSize(); n > 8 {
		t.Fatalf("cache grew to %d entries, cap is 8", n)
	}
	if n := cache.Evictions(); n != 40-8 {
		t.Fatalf("evictions = %d, want %d (one per distinct kernel past the cap)", n, 40-8)
	}
}
