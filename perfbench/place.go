package main

import (
	"fmt"
	"math"
	"time"

	"synergy/internal/hw"
	"synergy/internal/metrics"
	"synergy/internal/placement"
	"synergy/internal/sweep"
)

const (
	// placeSetups is how many times a run sets place-* up; setup_s is the
	// median.
	placeSetups = 9
	// placeLimitMs is the per-call latency limit the closed-loop
	// goodput_rps counts placements against.
	placeLimitMs = 10.0
)

// The canonical fleet of synergy-place: H100 + Xeon 8480+ + Alveo V80
// under a 330 W fleet budget.
var fleetNames = []string{"h100", "xeon8480", "alveo"}

const fleetBudgetW = 330

// chosen is the part of a placement the oracle compares: device,
// frequency, and the exact time and energy bits.
type chosen struct {
	Dev, Freq    int
	Time, Energy uint64
	ES, PL       uint64
}

func chosenOf(p placement.Placement) chosen {
	return chosen{p.DeviceIdx, p.FreqMHz, math.Float64bits(p.TimeSec), math.Float64bits(p.EnergyJ),
		math.Float64bits(p.ESPct), math.Float64bits(p.PLPct)}
}

// place is one ground-truth joint placement, as synergy-place does it.
func place(eng *sweep.Engine, fleet *hw.Fleet, op placeOp) (placement.Placement, error) {
	g, err := placement.BuildGroundTruth(eng, fleet, suite[op.Bench].Kernel, op.Items)
	if err != nil {
		return placement.Placement{}, err
	}
	return g.Select(metrics.StandardTargets[op.Target])
}

// placeOpFor draws op i of a place workload.
func placeOpFor(cold bool, seed int64, i int) placeOp {
	if cold {
		return coldOp(seed, i)
	}
	return warmOp(seed, i)
}

// setUpPlace empties the shared sweep memo and fills it the way the
// workload expects to find it — place-warm's whole population, or enough
// placements for place-cold that the memo starts at its cap — reps
// times; it returns the fleet and the median set-up time.
func setUpPlace(seed int64, cold bool, reps int) (*hw.Fleet, float64, error) {
	eng := sweep.Shared()
	var fleet *hw.Fleet
	var times []float64
	for r := 0; r < reps; r++ {
		eng.Invalidate()
		t0 := time.Now()
		var err error
		fleet, err = hw.FleetFromNames(fleetNames, hw.Budget{PowerW: fleetBudgetW})
		if err != nil {
			return nil, 0, err
		}
		n := len(suite) * warmSizes
		op := func(i int) placeOp {
			return placeOp{Bench: i / warmSizes, Items: warmSize(seed, i/warmSizes, i%warmSizes)}
		}
		if cold {
			n = coldPrefill
			op = func(i int) placeOp { return coldPrefillOp(seed, i) }
		}
		err = eng.ForEach(n, func(i int) error {
			_, err := placement.BuildGroundTruth(eng, fleet, suite[op(i).Bench].Kernel, op(i).Items)
			return err
		})
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return fleet, median(sortedCopy(times)), nil
}

// warmRefs computes place-warm's expected placements for its whole
// population and every target on a private sweep engine.
func warmRefs(seed int64, fleet *hw.Fleet) (map[placeOp]chosen, error) {
	priv := sweep.NewEngine()
	refs := map[placeOp]chosen{}
	for b := range suite {
		for j := 0; j < warmSizes; j++ {
			for t := range metrics.StandardTargets {
				op := placeOp{Bench: b, Items: warmSize(seed, b, j), Target: t}
				p, err := place(priv, fleet, op)
				if err != nil {
					return nil, err
				}
				refs[op] = chosenOf(p)
			}
		}
	}
	return refs, nil
}

// coldCheck recomputes every place-cold op on a private sweep engine
// (two ops at a time) and counts disagreements.
func coldCheck(seed int64, fleet *hw.Fleet, first int, got []chosen) (int, error) {
	priv := sweep.NewEngine(sweep.WithWorkers(1), sweep.WithCacheCap(64))
	bad := make([]bool, len(got))
	err := sweep.NewEngine(sweep.WithWorkers(conns)).ForEach(len(got), func(i int) error {
		p, err := place(priv, fleet, coldOp(seed, first+i))
		bad[i] = err == nil && chosenOf(p) != got[i]
		return err
	})
	n := 0
	for _, b := range bad {
		if b {
			n++
		}
	}
	return n, err
}

// runPlace runs place-warm or place-cold: one in-process closed-loop
// caller placing kernels on the fleet through the shared sweep memo.
func runPlace(cfg config) (*result, error) {
	if cfg.Trace {
		return tracePlace(cfg)
	}
	cold := cfg.Workload == "place-cold"
	var refs map[placeOp]chosen
	if !cold {
		fleet, err := hw.FleetFromNames(fleetNames, hw.Budget{PowerW: fleetBudgetW})
		if err != nil {
			return nil, err
		}
		if refs, err = warmRefs(cfg.Seed, fleet); err != nil {
			return nil, err
		}
	}
	fleet, setupS, err := setUpPlace(cfg.Seed, cold, placeSetups)
	if err != nil {
		return nil, err
	}
	eng := sweep.Shared()
	ev0, evict0 := eng.Evaluations(), eng.Evictions()
	lat, got, failed, err := placeLoop(cfg.Seed, cfg.Seconds, 0, fleet, refs)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# sweep memo: evaluations=%d evictions=%d size=%d\n",
		eng.Evaluations()-ev0, eng.Evictions()-evict0, eng.CacheSize())
	if cold {
		bad, err := coldCheck(cfg.Seed, fleet, 0, got)
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		failed += bad
	}
	res := placeResult(lat, failed, setupS)
	got, refs = nil, nil
	res.set("heap_mb", heapMB(), "MB")
	return res, nil
}

// placeLoop runs ops first, first+1, ... back to back for the given
// seconds, timing each call. It returns per-call latencies (ms), the
// chosen placements when there are no precomputed references, and the
// count of failed ops.
func placeLoop(seed int64, seconds float64, first int, fleet *hw.Fleet, refs map[placeOp]chosen) ([]float64, []chosen, int, error) {
	eng := sweep.Shared()
	cold := refs == nil
	var lat []float64
	var got []chosen
	failed := 0
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for i := first; time.Since(start) < budget; i++ {
		op := placeOpFor(cold, seed, i)
		t0 := time.Now()
		p, err := place(eng, fleet, op)
		d := time.Since(t0)
		if err != nil {
			return nil, nil, 0, err
		}
		lat = append(lat, ms(d))
		if cold {
			got = append(got, chosenOf(p))
		} else if refs[op] != chosenOf(p) {
			failed++
		}
	}
	return lat, got, failed, nil
}

// placeResult reduces a closed-loop run to the end-to-end metrics.
func placeResult(lat []float64, failed int, setupS float64) *result {
	busy, within := 0.0, 0
	for _, l := range lat {
		busy += l
		if l <= placeLimitMs {
			within++
		}
	}
	s := sortedCopy(lat)
	p99, pct, _ := tail(s)
	res := &result{Attempted: len(lat), Failed: failed, Correct: failed == 0}
	res.set("setup_s", setupS, "s")
	res.set("p50_ms", median(s), "ms")
	res.set("p99_ms", p99, "ms")
	res.set("ops_per_s", float64(len(lat))/(busy/1e3), "op/s")
	res.set("goodput_rps", float64(within-failed)/(busy/1e3), "req/s")
	res.set("ok_ratio", 1-float64(failed)/float64(len(lat)), "ratio")
	fmt.Printf("# p99_ms is p%.4f of %d calls\n", pct, len(lat))
	return res
}
