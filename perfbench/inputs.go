package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"synergy/internal/benchsuite"
	"synergy/internal/features"
	"synergy/internal/metrics"
	"synergy/internal/serve"
)

// Every input the program sees is generated here from the run's seed;
// the same seed yields byte-identical schedules and payloads.

const (
	// kirPopulation is the number of distinct kernels (each suite kernel
	// renamed 356 ways, so each has its own fingerprint) advise-kir draws
	// from: twice the 4096-entry caps of the fingerprint, optimizer,
	// compiled-program, feature and sweep memos.
	kirPopulation = 23 * 356
	// kirPrefill is how many of the most popular kernels set-up pushes
	// through the memos, filling every 4096-entry cap before the first
	// timed request with what a daemon that has been up for a while
	// would hold.
	kirPrefill = 4096
	// kirZipfS is the popularity skew (Zipf exponent) over the population.
	kirZipfS = 0.8
	// kirSizes is how many distinct launch sizes advise-kir draws from.
	kirSizes = 4
	// warmSizes is the number of launch sizes per benchmark in place-warm's
	// prefetched population (23 x 56 x 3 devices = 3864 sweeps, under the
	// sweep memo's cap, so every timed sweep is a hit).
	warmSizes = 56
	// coldPrefill is how many placements set-up runs for place-cold so
	// the sweep memo starts at its cap (3 sweeps each).
	coldPrefill = 1366
)

// suite is the benchmark suite, in its stable order.
var suite = benchsuite.All()

// adviseOp is one /v1/advise request: which suite kernel (or renamed
// variant), which target and, for advise-kir, which launch size.
type adviseOp struct {
	Bench   int   // index into suite
	Variant int   // kir population index (-1 for feature-map requests)
	Target  int   // index into metrics.StandardTargets
	Items   int64 // launch size (kir only)
}

// step is one fixed-rate open-loop phase: arrival offsets and the
// request each arrival carries.
type step struct {
	Rate float64
	Len  time.Duration
	Due  []time.Duration
	Ops  []adviseOp
}

// arrivals draws Poisson arrivals (exponential gaps) at rate per second
// over d: independent users, so an open loop.
func arrivals(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for i := range z.cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipf) draw(rng *rand.Rand) int {
	i := sort.SearchFloat64s(z.cdf, rng.Float64())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// kirPlan is advise-kir's kernel population: popularity rank → variant,
// and the seeded launch-size set. Rank r is always a renaming of suite
// kernel r mod 23, so every seed spreads popularity over the suite alike
// (which kernels are heavy does not change with the seed); the seed
// picks which renaming sits at each rank.
type kirPlan struct {
	byRank []int // rank → variant
	sizes  []int64
	zipf   *zipf
	size   []int // variant → index into sizes for the prefill
}

func newKIRPlan(seed int64) *kirPlan {
	rng := rand.New(rand.NewSource(seed ^ 0x6b6972))
	p := &kirPlan{byRank: make([]int, kirPopulation), zipf: newZipf(kirPopulation, kirZipfS)}
	names := rng.Perm(kirPopulation / len(suite))
	for r := range p.byRank {
		p.byRank[r] = r%len(suite) + len(suite)*names[r/len(suite)]
	}
	for len(p.sizes) < kirSizes {
		n := int64(1) << (18 + rng.Intn(7)) // 2^18 .. 2^24 items
		n += int64(rng.Intn(1024))
		p.sizes = append(p.sizes, n)
	}
	p.size = make([]int, kirPopulation)
	for i := range p.size {
		p.size[i] = rng.Intn(kirSizes)
	}
	return p
}

// variantBench maps a population index to its suite kernel.
func variantBench(v int) int { return v % len(suite) }

// variantKIR renders population member v as .kir text: the suite kernel
// renamed, so its fingerprint is its own.
func variantKIR(v int) string {
	k := *suite[variantBench(v)].Kernel
	k.Name = fmt.Sprintf("%s_v%04d", k.Name, v/len(suite))
	return k.Disassemble()
}

// prefill lists the kirPrefill most popular variants, least popular of
// them first (so the most popular are the most recently used), each
// with its launch size.
func (p *kirPlan) prefill() []adviseOp {
	out := make([]adviseOp, 0, kirPrefill)
	for r := kirPrefill - 1; r >= 0; r-- {
		v := p.byRank[r]
		out = append(out, adviseOp{Bench: variantBench(v), Variant: v, Items: p.sizes[p.size[v]]})
	}
	return out
}

// makeStep builds step idx of an advise run: Poisson arrivals at rate
// over d, each carrying a seeded request — a feature map for one of the
// 23 suite kernels (plan == nil) or a .kir kernel drawn from the plan's
// Zipf popularity. The step is a pure function of its arguments.
func makeStep(seed int64, plan *kirPlan, idx int, rate float64, d time.Duration) step {
	rng := rand.New(rand.NewSource(int64(mix(uint64(seed) ^ mix(uint64(idx)<<32^math.Float64bits(rate))))))
	st := step{Rate: rate, Len: d, Due: arrivals(rng, rate, d)}
	st.Ops = make([]adviseOp, len(st.Due))
	for j := range st.Ops {
		op := adviseOp{Variant: -1, Target: rng.Intn(len(metrics.StandardTargets))}
		if plan != nil {
			v := plan.byRank[plan.zipf.draw(rng)]
			op.Bench, op.Variant = variantBench(v), v
			op.Items = plan.sizes[rng.Intn(kirSizes)]
		} else {
			op.Bench = rng.Intn(len(suite))
		}
		st.Ops[j] = op
	}
	return st
}

// featureMaps caches each suite kernel's feature map (the compiler-pass
// output a features request carries).
var featureMaps = func() []map[string]float64 {
	out := make([]map[string]float64, len(suite))
	for i, b := range suite {
		out[i] = features.MustExtract(b.Kernel).ToMap()
	}
	return out
}()

// request renders an op as its JSON request body.
func (op adviseOp) request() serve.Request {
	req := serve.Request{Target: metrics.StandardTargets[op.Target].String()}
	if op.Variant < 0 {
		req.Features = featureMaps[op.Bench]
		return req
	}
	req.KIR = variantKIR(op.Variant)
	req.Items = op.Items
	req.GroundTruth = true
	return req
}

func (op adviseOp) body() []byte {
	b, err := json.Marshal(op.request())
	if err != nil {
		panic(err) // the request types always marshal
	}
	return b
}

// placeOp is one placement call.
type placeOp struct {
	Bench  int
	Items  int64
	Target int
}

// mix is a SplitMix64 step: placement op i's inputs are a pure function
// of (seed, i), so closed-loop runs of any length draw the same prefix.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// warmSize is the j-th prefetched launch size of benchmark b.
func warmSize(seed int64, b, j int) int64 {
	return 1<<16 + int64(mix(uint64(seed)^uint64(b*warmSizes+j)<<20)%(1<<24))
}

// warmOp draws place-warm op i from the prefetched population.
func warmOp(seed int64, i int) placeOp {
	h := mix(uint64(seed) ^ mix(uint64(i)))
	b := int(h % uint64(len(suite)))
	j := int(h / uint64(len(suite)) % warmSizes)
	t := int(h / uint64(len(suite)*warmSizes) % uint64(len(metrics.StandardTargets)))
	return placeOp{Bench: b, Items: warmSize(seed, b, j), Target: t}
}

// coldOp draws place-cold op i: a launch size no earlier op (and no
// prefill) used, so every sweep misses. Sizes are 1<<22 + 16*i + a
// seeded jitter in [0, 16).
func coldOp(seed int64, i int) placeOp {
	h := mix(uint64(seed) ^ mix(uint64(i)^0xc01d))
	return placeOp{
		Bench:  int(h % uint64(len(suite))),
		Items:  1<<22 + 16*int64(i) + int64(h>>60),
		Target: int(h >> 8 % uint64(len(metrics.StandardTargets))),
	}
}

// coldPrefillOp is the j-th set-up placement for place-cold, with sizes
// below every timed op's.
func coldPrefillOp(seed int64, j int) placeOp {
	op := coldOp(seed, j)
	op.Items = 1<<20 + 16*int64(j) + int64(mix(uint64(seed)^uint64(j))>>60)
	return op
}
