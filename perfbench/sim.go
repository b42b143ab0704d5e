package main

import "container/list"

// memoCap is the entry cap shared by the fingerprint, optimizer,
// compiled-program, feature and sweep memos.
const memoCap = 4096

// lru is an independent model of a capped LRU memo: the oracle the
// traced run checks the program's own memo counters against.
type lru[K comparable] struct {
	cap                     int
	order                   *list.List // front = most recent; values are K
	idx                     map[K]*list.Element
	hits, misses, evictions int64
}

func newLRU[K comparable](cap int) *lru[K] {
	return &lru[K]{cap: cap, order: list.New(), idx: map[K]*list.Element{}}
}

// touch looks k up, inserting it (and evicting the least recently used
// entry past the cap) on a miss. It reports whether k was present.
func (l *lru[K]) touch(k K) bool {
	if e, ok := l.idx[k]; ok {
		l.order.MoveToFront(e)
		l.hits++
		return true
	}
	l.misses++
	l.idx[k] = l.order.PushFront(k)
	for len(l.idx) > l.cap {
		b := l.order.Back()
		l.order.Remove(b)
		delete(l.idx, b.Value.(K))
		l.evictions++
	}
	return false
}

// kirSim models the memo traffic of advise-kir ops: the feature memo
// (keyed by kernel), the optimizer memo it fills on a miss, the sweep
// memo (kernel, launch size) and, on a sweep miss, the compiled-program
// lookup of the evaluation with the optimizer and feature lookups it
// makes. It starts from the set-up's prefill.
type kirSim struct {
	plan           *kirPlan
	feat, opt, cmp *lru[int]
	sweep          *lru[[2]int64]
	base           counters
	extraCompHits  int64
}

func newKIRSim(plan *kirPlan) *kirSim {
	s := &kirSim{plan: plan, feat: newLRU[int](memoCap), opt: newLRU[int](memoCap),
		cmp: newLRU[int](memoCap), sweep: newLRU[[2]int64](memoCap)}
	if plan != nil {
		for _, op := range plan.prefill() {
			s.touch(op, false)
		}
	}
	s.base = s.raw()
	return s
}

// touch plays one op's lookups. With extras it also plays the traced
// run's own extra lookups: the optimizer after an extraction miss, and
// the compiled program after a sweep miss.
func (s *kirSim) touch(op adviseOp, extras bool) {
	v := op.Variant
	if !s.feat.touch(v) {
		s.opt.touch(v)
		if extras {
			s.opt.touch(v)
		}
	}
	if !s.sweep.touch([2]int64{int64(v), op.Items}) {
		s.compile(v)
		if extras {
			s.compile(v)
			s.extraCompHits++
		}
	}
}

// compile plays compile.Cache.Get: the optimizer lookup that forms its
// key, then on a miss Compile's own optimizer and feature lookups.
func (s *kirSim) compile(v int) {
	s.opt.touch(v)
	if !s.cmp.touch(v) {
		s.opt.touch(v)
		if !s.feat.touch(v) {
			s.opt.touch(v)
		}
	}
}

// access plays a traced op (a no-op for feature-map requests, which
// reach no memo).
func (s *kirSim) access(op adviseOp) {
	if s.plan != nil {
		s.touch(op, true)
	}
}

func (s *kirSim) raw() counters {
	return counters{
		FeatHits: s.feat.hits, FeatExtractions: s.feat.misses,
		OptHits: s.opt.hits, OptRuns: s.opt.misses,
		CompHits: s.cmp.hits, CompCompiles: s.cmp.misses, CompEvictions: s.cmp.evictions,
		SweepEvals: s.sweep.misses, SweepEvicts: s.sweep.evictions,
	}
}

// counters is the traffic expected since set-up.
func (s *kirSim) counters() counters { return s.raw().sub(s.base) }
