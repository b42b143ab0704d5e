package memo

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// model is an independent LRU over a recency-ordered slice (index 0 is
// the most recently used), with the memo's documented policy: a miss
// inserts before computing and evicts past the cap; a failed compute
// removes its own entry and counts as neither hit nor miss.
type model struct {
	cap                     int
	keys                    []int
	vals                    map[int]int
	hits, misses, evictions int64
}

func (m *model) remove(k int) {
	for i, x := range m.keys {
		if x == k {
			m.keys = append(m.keys[:i], m.keys[i+1:]...)
			return
		}
	}
}

func (m *model) do(k, val int, fail bool) (int, bool) {
	if v, ok := m.vals[k]; ok {
		m.remove(k)
		m.keys = append([]int{k}, m.keys...)
		m.hits++
		return v, true
	}
	m.keys = append([]int{k}, m.keys...)
	for m.cap > 0 && len(m.keys) > m.cap {
		victim := m.keys[len(m.keys)-1]
		m.keys = m.keys[:len(m.keys)-1]
		delete(m.vals, victim)
		m.evictions++
	}
	if fail {
		m.remove(k)
		return 0, false
	}
	m.vals[k] = val
	m.misses++
	return val, true
}

// resident lists the memo's keys from most to least recently used.
func resident(m *Memo[int, int]) []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := []int{}
	for el := m.order.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*entry[int, int]).key)
	}
	if len(keys) != len(m.entries) {
		panic(fmt.Sprintf("list holds %d entries, map %d", len(keys), len(m.entries)))
	}
	return keys
}

// TestCacheMatchesModel plays seeded random traffic — lookups over a key
// space larger than the cap, failing computations and resets — against
// the memo and the model, and compares counters, values, hook calls and
// the resident keys in recency order after every operation.
func TestCacheMatchesModel(t *testing.T) {
	for _, cap := range []int{0, 1, 3, 8} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			m := New[int, int](cap)
			var hooks int64
			m.SetHook(func(int) { hooks++ })
			want := &model{cap: cap, vals: map[int]int{}}
			boom := errors.New("boom")
			for op := 0; op < 2000; op++ {
				if rng.Intn(200) == 0 {
					m.Reset()
					want.keys, want.vals = nil, map[int]int{}
					continue
				}
				k, fail := rng.Intn(12), rng.Intn(10) == 0
				got, err := m.Do(context.Background(), k, func() (int, error) {
					if fail {
						return 0, boom
					}
					return op, nil
				})
				v, ok := want.do(k, op, fail)
				if ok != (err == nil) || (ok && got != v) {
					t.Fatalf("cap %d seed %d op %d key %d: got (%d, %v), model (%d, ok=%v)", cap, seed, op, k, got, err, v, ok)
				}
				if h, mi, ev := m.Hits(), m.Misses(), m.Evictions(); h != want.hits || mi != want.misses || ev != want.evictions {
					t.Fatalf("cap %d seed %d op %d: counters (hits %d, misses %d, evictions %d), model (%d, %d, %d)",
						cap, seed, op, h, mi, ev, want.hits, want.misses, want.evictions)
				}
				if hooks != m.Misses() {
					t.Fatalf("cap %d seed %d op %d: hook fired %d times for %d misses", cap, seed, op, hooks, m.Misses())
				}
				if keys := resident(m); !reflect.DeepEqual(keys, append([]int{}, want.keys...)) {
					t.Fatalf("cap %d seed %d op %d: resident %v, model %v", cap, seed, op, keys, want.keys)
				}
				if m.Len() != len(want.keys) {
					t.Fatalf("cap %d seed %d op %d: Len %d, model %d", cap, seed, op, m.Len(), len(want.keys))
				}
			}
		}
	}
}

// blocked starts a Do on key whose compute waits for release, and
// returns once the compute is running.
func blocked(m *Memo[int, int], key, val int, err error) (release func(), result <-chan error) {
	running, gate, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		got, e := m.Do(context.Background(), key, func() (int, error) {
			close(running)
			<-gate
			return val, err
		})
		if e == nil && got != val {
			e = fmt.Errorf("leader got %d, want %d", got, val)
		}
		done <- e
	}()
	<-running
	return func() { close(gate) }, done
}

// waitHits spins until the memo has counted n hits, i.e. until n
// callers have joined an in-flight entry.
func waitHits(m *Memo[int, int], n int64) {
	for m.Hits() < n {
		runtime.Gosched()
	}
}

// TestCacheSingleflight: concurrent callers of one key run compute
// exactly once, share its value, and count as hits; the hook fires once.
func TestCacheSingleflight(t *testing.T) {
	const callers = 32
	m := New[int, int](4)
	var computes, hooks atomic.Int64
	m.SetHook(func(k int) {
		if k != 7 {
			t.Errorf("hook key %d, want 7", k)
		}
		hooks.Add(1)
	})
	start := make(chan struct{})
	var wg sync.WaitGroup
	got := make([]int, callers)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v, err := m.Do(context.Background(), 7, func() (int, error) {
				computes.Add(1)
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}(i)
	}
	close(start)
	wg.Wait()
	for i, v := range got {
		if v != 42 {
			t.Fatalf("caller %d got %d, want 42", i, v)
		}
	}
	if c, h := computes.Load(), hooks.Load(); c != 1 || h != 1 {
		t.Fatalf("compute ran %d times and the hook %d times, want 1 and 1", c, h)
	}
	if m.Hits() != callers-1 || m.Misses() != 1 {
		t.Fatalf("hits %d, misses %d, want %d and 1", m.Hits(), m.Misses(), callers-1)
	}
}

// TestCacheFailureNotMemoized: the waiters of a failed computation get
// its error, the failure is not resident, counts as no miss, fires no
// hook, and the next request recomputes.
func TestCacheFailureNotMemoized(t *testing.T) {
	m := New[int, int](4)
	m.SetHook(func(int) { t.Error("hook fired for a failed compute") })
	boom := errors.New("boom")
	release, leader := blocked(m, 1, 0, boom)
	const waiters = 4
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, err := m.Do(context.Background(), 1, func() (int, error) {
				return 0, errors.New("waiter computed")
			})
			errs <- err
		}()
	}
	waitHits(m, waiters)
	release()
	if err := <-leader; !errors.Is(err, boom) {
		t.Fatalf("leader err = %v, want boom", err)
	}
	for i := 0; i < waiters; i++ {
		if err := <-errs; !errors.Is(err, boom) {
			t.Fatalf("waiter err = %v, want the leader's error", err)
		}
	}
	if m.Len() != 0 || m.Misses() != 0 {
		t.Fatalf("failed compute left Len %d, misses %d", m.Len(), m.Misses())
	}
	m.SetHook(nil)
	if v, err := m.Do(context.Background(), 1, func() (int, error) { return 5, nil }); err != nil || v != 5 {
		t.Fatalf("retry got (%d, %v), want a fresh compute", v, err)
	}
}

// TestCacheWaiterCancel: a waiter whose context is canceled returns
// ctx.Err() at once, while the computation it joined finishes and is
// memoized for everyone else. A completed entry is served even to a
// canceled context.
func TestCacheWaiterCancel(t *testing.T) {
	m := New[int, int](4)
	release, leader := blocked(m, 1, 10, nil)
	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan error, 1)
	go func() {
		_, err := m.Do(ctx, 1, func() (int, error) { return 0, errors.New("waiter computed") })
		waiter <- err
	}()
	waitHits(m, 1)
	cancel()
	if err := <-waiter; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter err = %v, want context.Canceled", err)
	}
	release()
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	// A select over a closed done channel and a closed ctx.Done picks
	// either at random; repeat so that choice cannot pass by luck.
	for i := 0; i < 64; i++ {
		v, err := m.Do(ctx, 1, func() (int, error) { return 0, errors.New("recomputed") })
		if err != nil || v != 10 {
			t.Fatalf("completed entry under a canceled context = (%d, %v), want (10, nil)", v, err)
		}
	}
}

// TestCacheEvictInFlight: evicting an entry while it computes neither
// disturbs its leader nor its waiters; the evicted result is not
// resident afterwards, and a failure of the evicted computation leaves
// a successor entry for the same key alone.
func TestCacheEvictInFlight(t *testing.T) {
	m := New[int, int](1)
	release, leader := blocked(m, 1, 10, nil)
	waiter := make(chan int, 1)
	go func() {
		v, _ := m.Do(context.Background(), 1, func() (int, error) { return -1, nil })
		waiter <- v
	}()
	waitHits(m, 1)
	if v, err := m.Do(context.Background(), 2, func() (int, error) { return 20, nil }); err != nil || v != 20 {
		t.Fatalf("Do(2) = (%d, %v)", v, err)
	}
	if m.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", m.Evictions())
	}
	release()
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	if v := <-waiter; v != 10 {
		t.Fatalf("waiter of the evicted entry got %d, want 10", v)
	}
	if keys := resident(m); !reflect.DeepEqual(keys, []int{2}) {
		t.Fatalf("resident %v, want [2]", keys)
	}

	// A failing computation evicted mid-flight must not unlink the
	// successor that now holds its key.
	release, leader = blocked(m, 3, 0, errors.New("boom"))
	if _, err := m.Do(context.Background(), 4, func() (int, error) { return 40, nil }); err != nil {
		t.Fatal(err)
	}
	succRelease, succ := blocked(m, 3, 30, nil)
	release()
	if err := <-leader; err == nil {
		t.Fatal("failing leader returned no error")
	}
	succRelease()
	if err := <-succ; err != nil {
		t.Fatal(err)
	}
	if keys := resident(m); !reflect.DeepEqual(keys, []int{3}) {
		t.Fatalf("resident %v, want the successor [3]", keys)
	}
}

// TestCacheReset: Reset drops every entry without counting evictions or
// touching the other counters; an in-flight computation completes for
// its own caller but is not found afterwards.
func TestCacheReset(t *testing.T) {
	m := New[int, int](2)
	for k := 0; k < 2; k++ {
		if _, err := m.Do(context.Background(), k, func() (int, error) { return k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	release, leader := blocked(m, 9, 90, nil)
	hits, misses, evictions := m.Hits(), m.Misses(), m.Evictions()
	m.Reset()
	if m.Len() != 0 || m.Hits() != hits || m.Misses() != misses || m.Evictions() != evictions {
		t.Fatalf("after Reset: Len %d, counters (%d, %d, %d), want 0 and (%d, %d, %d)",
			m.Len(), m.Hits(), m.Misses(), m.Evictions(), hits, misses, evictions)
	}
	release()
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	if m.Len() != 0 {
		t.Fatalf("in-flight result re-inserted after Reset (Len %d)", m.Len())
	}
	if v, _ := m.Do(context.Background(), 9, func() (int, error) { return 91, nil }); v != 91 {
		t.Fatalf("key computed before Reset served %d, want a recompute", v)
	}
}
