package opt_test

import (
	"math"
	"sync"
	"testing"

	"synergy/internal/benchsuite"
	"synergy/internal/kernelir"
	"synergy/internal/kernelir/opt"
)

// runBoth executes k and its optimized form on identical fresh args and
// requires identical errors and bit-identical buffer contents.
func runBoth(t *testing.T, k *kernelir.Kernel, mkArgs func() kernelir.Args, items, nx int) *kernelir.Kernel {
	t.Helper()
	ko, res := opt.Optimize(k)
	if res.Err != nil {
		t.Fatalf("Optimize(%s): %v", k.Name, res.Err)
	}
	ai, ao := mkArgs(), mkArgs()
	errI := kernelir.InterpretGridWorkers(k, ai, items, nx, 1)
	errO := kernelir.InterpretGridWorkers(ko, ao, items, nx, 1)
	if (errI == nil) != (errO == nil) || (errI != nil && errI.Error() != errO.Error()) {
		t.Fatalf("%s: original err %v, optimized err %v", k.Name, errI, errO)
	}
	for name, buf := range ai.F32 {
		for i := range buf {
			if math.Float32bits(buf[i]) != math.Float32bits(ao.F32[name][i]) {
				t.Fatalf("%s: f32 %s[%d]: original %v (%#x) != optimized %v (%#x)\noriginal:\n%s\noptimized:\n%s",
					k.Name, name, i, buf[i], math.Float32bits(buf[i]),
					ao.F32[name][i], math.Float32bits(ao.F32[name][i]),
					k.Disassemble(), ko.Disassemble())
			}
		}
	}
	for name, buf := range ai.I32 {
		for i := range buf {
			if buf[i] != ao.I32[name][i] {
				t.Fatalf("%s: i32 %s[%d]: original %d != optimized %d\noriginal:\n%s\noptimized:\n%s",
					k.Name, name, i, buf[i], ao.I32[name][i], k.Disassemble(), ko.Disassemble())
			}
		}
	}
	return ko
}

func countOp(k *kernelir.Kernel, op kernelir.Op) int {
	n := 0
	for _, in := range k.Body {
		if in.Op == op {
			n++
		}
	}
	return n
}

func f32Args(n int) func() kernelir.Args {
	return func() kernelir.Args {
		out := make([]float32, n)
		return kernelir.Args{F32: map[string][]float32{"out": out}}
	}
}

func i32Args(n int) func() kernelir.Args {
	return func() kernelir.Args {
		out := make([]int32, n)
		return kernelir.Args{I32: map[string][]int32{"out": out}}
	}
}

func TestFoldChainCollapses(t *testing.T) {
	b := kernelir.NewBuilder("fold_chain")
	out := b.BufferI32("out", kernelir.Write)
	gid := b.GlobalID()
	two := b.ConstI(2)
	three := b.ConstI(3)
	five := b.AddI(two, three)     // folds to 5
	fifteen := b.MulI(five, three) // folds to 15
	sum := b.AddI(gid, fifteen)    // not foldable (gid)
	b.StoreI(out, gid, sum)
	k := b.MustBuild()

	ko := runBoth(t, k, i32Args(8), 8, 0)
	if len(ko.Body) >= len(k.Body) {
		t.Fatalf("fold+dce did not shrink the body: %d -> %d\n%s", len(k.Body), len(ko.Body), ko.Disassemble())
	}
	if got := countOp(ko, kernelir.OpAddI); got != 1 {
		t.Fatalf("want exactly the gid add to survive, got %d AddI:\n%s", got, ko.Disassemble())
	}
	if got := countOp(ko, kernelir.OpMulI); got != 0 {
		t.Fatalf("constant multiply survived folding:\n%s", ko.Disassemble())
	}
}

// TestCarryoverBlocksEntryAssumptions pins the per-worker register
// carryover semantics: a register read before any write in the body
// observes the previous item's value, so the optimizer must not assume
// a zero (or any constant) entry state.
func TestCarryoverBlocksEntryAssumptions(t *testing.T) {
	k := &kernelir.Kernel{
		Name: "carryover_acc",
		Params: []kernelir.Param{
			{Name: "out", IsBuffer: true, Type: kernelir.I32, Access: kernelir.Write},
		},
		NumIntRegs: 3,
		Body: []kernelir.Instr{
			{Op: kernelir.OpGlobalID, Dst: 0},
			{Op: kernelir.OpConstI, Dst: 2, Imm: 1},
			{Op: kernelir.OpAddI, Dst: 1, A: 1, B: 2}, // r1 += 1: reads r1 before any write
			{Op: kernelir.OpStoreGI, Buf: 0, A: 0, B: 1},
		},
	}
	if err := k.Validate(); err != nil {
		t.Fatal(err)
	}
	ko := runBoth(t, k, i32Args(4), 4, 0)
	// Single worker: the counter must persist across items -> 1,2,3,4.
	a := i32Args(4)()
	if err := kernelir.InterpretGridWorkers(ko, a, 4, 0, 1); err != nil {
		t.Fatal(err)
	}
	for i, want := range []int32{1, 2, 3, 4} {
		if a.I32["out"][i] != want {
			t.Fatalf("out[%d] = %d, want %d (carryover broken):\n%s", i, a.I32["out"][i], want, ko.Disassemble())
		}
	}
}

// TestNaNFoldingPreserved (satellite: optimizer edge cases): folding
// through NaN-producing float ops must reproduce the interpreter's
// bits, and the folded NaN immediate must survive in the kernel.
func TestNaNFoldingPreserved(t *testing.T) {
	b := kernelir.NewBuilder("nan_fold")
	out := b.BufferF32("out", kernelir.Write)
	gid := b.GlobalID()
	neg := b.ConstF(-1)
	nan := b.SqrtF(neg)             // sqrt(-1) = NaN, folds
	sum := b.AddF(nan, b.ConstF(2)) // NaN + 2 = NaN, folds
	lo := b.MinF(sum, b.ConstF(0))  // math.Min(NaN, 0) = NaN, folds
	b.StoreF(out, gid, lo)
	k := b.MustBuild()

	ko := runBoth(t, k, f32Args(4), 4, 0)
	if got := countOp(ko, kernelir.OpSqrtF); got != 0 {
		t.Fatalf("sqrt(-1) did not fold:\n%s", ko.Disassemble())
	}
	a := f32Args(4)()
	if err := kernelir.Execute(ko, a, 4); err != nil {
		t.Fatal(err)
	}
	for i, v := range a.F32["out"] {
		if !math.IsNaN(float64(v)) {
			t.Fatalf("out[%d] = %v, want NaN", i, v)
		}
	}
}

// TestDivRemByZeroNeverFolded (satellite: optimizer edge cases): the
// interpreter defines x/0 = 0 and x%0 = 0; the optimizer must leave
// those instructions in the code rather than bake in the quirk.
func TestDivRemByZeroNeverFolded(t *testing.T) {
	b := kernelir.NewBuilder("div_zero")
	out := b.BufferI32("out", kernelir.Write)
	gid := b.GlobalID()
	zero := b.ConstI(0)
	seven := b.ConstI(7)
	q := b.DivI(seven, zero)
	r := b.RemI(seven, zero)
	fz := b.ConstF(0)
	fq := b.DivF(b.ConstF(3), fz)
	b.StoreI(out, gid, b.AddI(q, r))
	b.StoreI(out, gid, b.FloatToInt(fq))
	k := b.MustBuild()

	ko := runBoth(t, k, i32Args(4), 4, 0)
	if countOp(ko, kernelir.OpDivI) != 1 || countOp(ko, kernelir.OpRemI) != 1 || countOp(ko, kernelir.OpDivF) != 1 {
		t.Fatalf("div/rem by zero was folded away:\n%s", ko.Disassemble())
	}
}

// TestDivByZeroNeverHoisted (satellite: optimizer edge cases): an
// invariant division whose divisor cannot be proven nonzero stays
// inside its loop; a provably nonzero divisor hoists.
func TestDivByZeroNeverHoisted(t *testing.T) {
	build := func(divisor int64) *kernelir.Kernel {
		b := kernelir.NewBuilder("hoist_div")
		out := b.BufferI32("out", kernelir.Write)
		gid := b.GlobalID()
		num := b.ConstI(100)
		den := b.ConstI(divisor)
		acc := b.CopyI(gid)
		b.Repeat(4, func() {
			q := b.DivI(num, den)
			b.StoreI(out, gid, b.AddI(acc, q))
		})
		return b.MustBuild()
	}

	inLoop := func(k *kernelir.Kernel, op kernelir.Op) bool {
		depth := 0
		for _, in := range k.Body {
			switch in.Op {
			case kernelir.OpRepeatBegin:
				depth++
			case kernelir.OpRepeatEnd:
				depth--
			case op:
				return depth > 0
			}
		}
		return false
	}

	kz := runBoth(t, build(0), i32Args(4), 4, 0)
	if !inLoop(kz, kernelir.OpDivI) {
		t.Fatalf("div by zero was hoisted out of its loop:\n%s", kz.Disassemble())
	}
	kn := runBoth(t, build(5), i32Args(4), 4, 0)
	if countOp(kn, kernelir.OpDivI) > 0 && inLoop(kn, kernelir.OpDivI) {
		t.Fatalf("div by nonzero constant stayed in the loop:\n%s", kn.Disassemble())
	}
}

// TestMaskedShiftSemantics (satellite: optimizer edge cases): shift
// amounts mask to 6 bits exactly like the interpreter.
func TestMaskedShiftSemantics(t *testing.T) {
	b := kernelir.NewBuilder("masked_shift")
	out := b.BufferI32("out", kernelir.Write)
	gid := b.GlobalID()
	s64 := b.ShlI(b.ConstI(3), b.ConstI(64))   // 64&63 = 0: folds to 3
	s70 := b.ShrI(b.ConstI(512), b.ConstI(70)) // 70&63 = 6: folds to 8
	idMask := b.ShlI(gid, b.ConstI(128))       // 128&63 = 0: algebra -> move
	sum := b.AddI(b.AddI(s64, s70), idMask)
	b.StoreI(out, gid, sum)
	k := b.MustBuild()

	ko := runBoth(t, k, i32Args(4), 4, 0)
	if countOp(ko, kernelir.OpShlI)+countOp(ko, kernelir.OpShrI) != 0 {
		t.Fatalf("masked shifts did not simplify:\n%s", ko.Disassemble())
	}
}

// TestMaxRepeatTripHoist (satellite: optimizer edge cases): LICM at the
// trip-count ceiling — the hoisted instruction executes once instead of
// MaxRepeatTrip times and the result is identical.
func TestMaxRepeatTripHoist(t *testing.T) {
	b := kernelir.NewBuilder("max_trip")
	out := b.BufferF32("out", kernelir.Write)
	gid := b.GlobalID()
	x := b.ConstF(1.5)
	y := b.ConstF(2.5)
	acc := b.CopyF(b.ConstF(0))
	b.Repeat(kernelir.MaxRepeatTrip, func() {
		inv := b.MulF(x, y) // invariant: hoists
		b.MoveF(acc, inv)
	})
	b.StoreF(out, gid, acc)
	k := b.MustBuild()

	ko, res := opt.Optimize(k)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Hoisted == 0 {
		t.Fatalf("nothing hoisted from a MaxRepeatTrip loop:\n%s", ko.Disassemble())
	}
	// The whole loop becomes dead weight and the fold cascade replaces
	// the stored value with a constant; run both to confirm equality
	// (the original grinds through 2^20 trips, the optimized one not).
	runBoth(t, k, f32Args(2), 2, 0)
}

// TestCollidingStoresKeepOrder (satellite: optimizer edge cases): two
// stores to the same index must survive in order — the last one wins,
// exactly as interpreted.
func TestCollidingStoresKeepOrder(t *testing.T) {
	b := kernelir.NewBuilder("colliding_stores")
	out := b.BufferI32("out", kernelir.Write)
	gid := b.GlobalID()
	b.StoreI(out, gid, b.ConstI(111))
	b.StoreI(out, gid, b.ConstI(222))
	k := b.MustBuild()

	ko := runBoth(t, k, i32Args(4), 4, 0)
	if got := countOp(ko, kernelir.OpStoreGI); got != 2 {
		t.Fatalf("store count changed: want 2, got %d:\n%s", got, ko.Disassemble())
	}
	a := i32Args(4)()
	if err := kernelir.Execute(ko, a, 4); err != nil {
		t.Fatal(err)
	}
	for i, v := range a.I32["out"] {
		if v != 222 {
			t.Fatalf("out[%d] = %d, want the later store's 222", i, v)
		}
	}
}

func TestCSEDeduplicates(t *testing.T) {
	b := kernelir.NewBuilder("cse_dup")
	out := b.BufferF32("out", kernelir.Write)
	gid := b.GlobalID()
	x := b.IntToFloat(gid)
	p1 := b.MulF(x, x)
	p2 := b.MulF(x, x) // identical: CSE'd to a move, then the move chain folds into the add
	b.StoreF(out, gid, b.AddF(p1, p2))
	k := b.MustBuild()

	ko := runBoth(t, k, f32Args(8), 8, 0)
	if got := countOp(ko, kernelir.OpMulF); got != 1 {
		t.Fatalf("want 1 MulF after CSE, got %d:\n%s", got, ko.Disassemble())
	}
}

func TestCSERespectsLoopCarriedValues(t *testing.T) {
	// acc = gid; repeat { t = acc+1; acc = t }; u = acc+1; store u.
	// The loop-carried acc makes the in-loop acc+1 different every
	// iteration, and the post-loop acc+1 different from all of them:
	// nothing may be CSE'd across the back edge.
	b := kernelir.NewBuilder("cse_loop_carried")
	out := b.BufferI32("out", kernelir.Write)
	gid := b.GlobalID()
	one := b.ConstI(1)
	acc := b.CopyI(gid)
	b.Repeat(3, func() {
		t := b.AddI(acc, one)
		b.MoveI(acc, t)
	})
	u := b.AddI(acc, one)
	b.StoreI(out, gid, u)
	k := b.MustBuild()

	ko := runBoth(t, k, i32Args(4), 4, 0)
	a := i32Args(4)()
	if err := kernelir.Execute(ko, a, 4); err != nil {
		t.Fatal(err)
	}
	for i := range a.I32["out"] {
		if want := int32(i + 4); a.I32["out"][i] != want {
			t.Fatalf("out[%d] = %d, want %d:\n%s", i, a.I32["out"][i], want, ko.Disassemble())
		}
	}
}

func TestStrengthReduction(t *testing.T) {
	b := kernelir.NewBuilder("strength")
	out := b.BufferI32("out", kernelir.Write)
	gid := b.GlobalID()
	eight := b.ConstI(8)
	m := b.MulI(gid, eight)
	b.StoreI(out, gid, m)
	k := b.MustBuild()

	ko := runBoth(t, k, i32Args(8), 8, 0)
	if countOp(ko, kernelir.OpMulI) != 0 || countOp(ko, kernelir.OpShlI) != 1 {
		t.Fatalf("gid*8 not strength-reduced to a shift:\n%s", ko.Disassemble())
	}
}

func TestStrengthReductionKeepsSharedConst(t *testing.T) {
	// The constant 8 has two readers; retargeting it to the shift count
	// 3 would corrupt the second reader, so the reduction must decline.
	b := kernelir.NewBuilder("strength_shared")
	out := b.BufferI32("out", kernelir.Write)
	gid := b.GlobalID()
	eight := b.ConstI(8)
	m := b.MulI(gid, eight)
	s := b.AddI(m, eight)
	b.StoreI(out, gid, s)
	k := b.MustBuild()

	ko := runBoth(t, k, i32Args(8), 8, 0)
	if countOp(ko, kernelir.OpMulI) != 1 {
		t.Fatalf("shared-constant multiply was rewritten:\n%s", ko.Disassemble())
	}
}

func TestOptimizeIdempotent(t *testing.T) {
	b := kernelir.NewBuilder("idem")
	out := b.BufferF32("out", kernelir.Write)
	gid := b.GlobalID()
	x := b.IntToFloat(gid)
	two := b.ConstF(2)
	acc := b.CopyF(x)
	b.Repeat(4, func() {
		inv := b.MulF(two, two)
		b.MoveF(acc, b.AddF(acc, inv))
	})
	b.StoreF(out, gid, acc)
	k := b.MustBuild()

	k1, res1 := opt.Optimize(k)
	if res1.Err != nil || !res1.Changed() {
		t.Fatalf("first run: err %v, changed %v", res1.Err, res1.Changed())
	}
	k2, res2 := opt.Optimize(k1)
	if res2.Err != nil {
		t.Fatal(res2.Err)
	}
	if res2.Changed() || k2 != k1 {
		t.Fatalf("Optimize is not idempotent: second run applied %d rewrites", len(res2.Rewrites))
	}
}

func TestOptimizeFailSafeOnInvalid(t *testing.T) {
	k := &kernelir.Kernel{
		Name:       "invalid",
		NumIntRegs: 1,
		Body: []kernelir.Instr{
			{Op: kernelir.OpAddI, Dst: 99, A: 0, B: 0}, // register out of range
		},
	}
	ko, res := opt.Optimize(k)
	if res.Err == nil {
		t.Fatal("want validation error")
	}
	if ko != k {
		t.Fatal("fail-safe must return the original kernel")
	}
}

func TestCachedResultMemoizes(t *testing.T) {
	opt.ResetCache()
	b := kernelir.NewBuilder("memo")
	out := b.BufferI32("out", kernelir.Write)
	gid := b.GlobalID()
	b.StoreI(out, gid, b.AddI(b.ConstI(2), b.ConstI(3)))
	k := b.MustBuild()

	k1, res1 := opt.CachedResult(k)
	k2, res2 := opt.CachedResult(k)
	if k1 != k2 {
		t.Fatal("memoized runs returned different kernels")
	}
	if len(res1.Rewrites) != len(res2.Rewrites) {
		t.Fatal("memoized runs returned different results")
	}
	size, hits, runs := opt.CacheStats()
	if size != 1 || hits != 1 || runs != 1 {
		t.Fatalf("cache stats = (%d, %d, %d), want (1, 1, 1)", size, hits, runs)
	}
	opt.ResetCache()
}

// TestCachedResultSingleflight: concurrent CachedResult calls on one
// fresh kernel run Optimize once. Every other caller joins that run as a
// hit and gets the same optimized kernel.
func TestCachedResultSingleflight(t *testing.T) {
	const callers = 16
	b, err := benchsuite.ByName("correlation")
	if err != nil {
		t.Fatal(err)
	}
	fresh := *b.Kernel
	fresh.Name = "correlation_singleflight"
	opt.ResetCache()
	defer opt.ResetCache()
	start := make(chan struct{})
	got := make([]*kernelir.Kernel, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i] = opt.Cached(&fresh)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, k := range got {
		if k != got[0] {
			t.Fatalf("caller %d got a different optimized kernel", i)
		}
	}
	if size, hits, runs := opt.CacheStats(); size != 1 || hits != callers-1 || runs != 1 {
		t.Fatalf("cache stats = (%d, %d, %d), want (1, %d, 1): Optimize must run once", size, hits, runs, callers-1)
	}
}

func TestResultPassCounts(t *testing.T) {
	b := kernelir.NewBuilder("counts")
	out := b.BufferI32("out", kernelir.Write)
	gid := b.GlobalID()
	b.StoreI(out, gid, b.AddI(gid, b.AddI(b.ConstI(1), b.ConstI(2))))
	k := b.MustBuild()
	_, res := opt.Optimize(k)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	total := 0
	for _, n := range res.PassCounts() {
		total += n
	}
	if total != len(res.Rewrites) {
		t.Fatalf("PassCounts total %d != %d rewrites", total, len(res.Rewrites))
	}
	if res.Before != len(k.Body) {
		t.Fatalf("Result.Before = %d, want %d", res.Before, len(k.Body))
	}
}
