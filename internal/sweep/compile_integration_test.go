package sweep

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"synergy/internal/hw"
	"synergy/internal/kernelir"
	"synergy/internal/kernelir/compile"
	"synergy/internal/kernelir/opt"
)

var integrationRuns atomic.Int64

// TestEngineUsesCompiledPath asserts the sweep engine goes through the
// compiled-program cache — and that the cache compiles a kernel exactly
// once per fingerprint even when many engines race to characterise it
// while the same kernel also executes directly.
func TestEngineUsesCompiledPath(t *testing.T) {
	if kernelir.ActiveRunner() != compile.Default() {
		t.Fatal("compiled runner is not installed as the process executor")
	}

	// A name of its own per run keeps the kernel new to the process-wide
	// program cache under -count=N.
	b := kernelir.NewBuilder(fmt.Sprintf("sweep_compile_integration_%d", integrationRuns.Add(1)))
	out := b.BufferF32("out", kernelir.Write)
	gid := b.GlobalID()
	acc := b.CopyF(b.ConstF(0))
	b.Repeat(16, func() {
		b.MoveF(acc, b.AddF(acc, b.MulF(b.IntToFloat(gid), b.ConstF(0.25))))
	})
	b.StoreF(out, gid, acc)
	k := b.MustBuild()
	// The program cache keys on the optimizer normal form, so hook on
	// that fingerprint rather than the raw kernel's.
	fp := kernelir.Fingerprint(opt.Cached(k))

	var compilations atomic.Int64
	compile.Default().SetHook(func(got string) {
		if got == fp {
			compilations.Add(1)
		}
	})
	defer compile.Default().SetHook(nil)

	spec, err := hw.SpecByName("v100")
	if err != nil {
		t.Fatal(err)
	}

	const engines = 8
	var wg sync.WaitGroup
	for i := 0; i < engines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := NewEngine(WithWorkers(2))
			if _, err := e.GroundTruth(spec, k, 512); err != nil {
				t.Errorf("GroundTruth: %v", err)
			}
			// Direct execution dispatches through the same cache.
			args := kernelir.Args{F32: map[string][]float32{"out": make([]float32, 64)}}
			if err := kernelir.Execute(k, args, 64); err != nil {
				t.Errorf("Execute: %v", err)
			}
		}()
	}
	wg.Wait()

	if got := compilations.Load(); got != 1 {
		t.Fatalf("kernel compiled %d times across %d engines + direct execution, want exactly once", got, engines)
	}
}
