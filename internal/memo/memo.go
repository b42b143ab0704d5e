// Package memo is the one bounded memo every cache in the system is
// built on: the sweep engine, the compiled-program cache, the optimizer
// memo, the feature-extraction memo and the kernel fingerprint memo.
//
// A Memo maps a content key to a computed value. Lookups keep the
// entries in least-recently-used order and evict from the cold end past
// the cap. A miss inserts an in-flight entry before computing, so
// concurrent requests for one key share a single computation
// (singleflight). A computation that fails is never memoized: its entry
// is dropped and a later request recomputes.
package memo

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// Memo is a concurrency-safe, bounded LRU memo with singleflight. The
// zero value is not usable; construct with New.
type Memo[K comparable, V any] struct {
	cap int

	mu      sync.Mutex
	entries map[K]*entry[K, V]
	order   list.List // front = most recently used; values are *entry
	hook    func(K)

	hits, misses, evictions atomic.Int64
}

// entry is one memoized (or in-flight) value. done closes once val and
// err are final. Evicting or resetting an in-flight entry is safe: its
// computation and its waiters hold the entry itself, and only later
// requesters miss.
type entry[K comparable, V any] struct {
	key  K
	done chan struct{}
	val  V
	err  error
	elem *list.Element
}

// New returns an empty memo holding at most cap entries (cap <= 0: no
// bound).
func New[K comparable, V any](cap int) *Memo[K, V] {
	return &Memo[K, V]{cap: cap, entries: map[K]*entry[K, V]{}}
}

// Do returns the value memoized under key, calling compute on a miss.
// Concurrent callers of one key share a single compute call and its
// result, error included. A caller that finds the key in flight waits
// for it, or returns ctx.Err() once ctx is done; a completed entry is
// returned whatever the state of ctx. compute runs on the caller's
// goroutine without the memo's lock held. A failed compute is not
// memoized.
func (m *Memo[K, V]) Do(ctx context.Context, key K, compute func() (V, error)) (V, error) {
	m.mu.Lock()
	if e, ok := m.entries[key]; ok {
		m.order.MoveToFront(e.elem)
		m.mu.Unlock()
		m.hits.Add(1)
		select {
		case <-e.done:
		default:
			select {
			case <-e.done:
			case <-ctx.Done():
				var zero V
				return zero, ctx.Err()
			}
		}
		return e.val, e.err
	}
	e := &entry[K, V]{key: key, done: make(chan struct{})}
	m.entries[key] = e
	e.elem = m.order.PushFront(e)
	for m.cap > 0 && len(m.entries) > m.cap {
		m.unlinkLocked(m.order.Back().Value.(*entry[K, V]))
		m.evictions.Add(1)
	}
	hook := m.hook
	m.mu.Unlock()

	e.val, e.err = compute()
	if e.err != nil {
		// Guard by identity: the slot may already hold a successor
		// (eviction or Reset plus a new request while we computed).
		m.mu.Lock()
		if m.entries[key] == e {
			m.unlinkLocked(e)
		}
		m.mu.Unlock()
	} else {
		m.misses.Add(1)
		if hook != nil {
			hook(key)
		}
	}
	close(e.done)
	return e.val, e.err
}

// unlinkLocked removes an entry from the map and the LRU list (caller
// holds m.mu).
func (m *Memo[K, V]) unlinkLocked(e *entry[K, V]) {
	delete(m.entries, e.key)
	m.order.Remove(e.elem)
}

// SetHook replaces the function called once per successful compute
// with its key, before the computation's waiters are released (nil
// removes it). It observes how often the memo really computes.
func (m *Memo[K, V]) SetHook(fn func(K)) {
	m.mu.Lock()
	m.hook = fn
	m.mu.Unlock()
}

// Hits returns how many lookups found their key resident, including
// callers that joined an in-flight computation.
func (m *Memo[K, V]) Hits() int64 { return m.hits.Load() }

// Misses returns how many computations have succeeded. Failed
// computations count as neither hits nor misses.
func (m *Memo[K, V]) Misses() int64 { return m.misses.Load() }

// Evictions returns how many entries the cap has pushed out.
func (m *Memo[K, V]) Evictions() int64 { return m.evictions.Load() }

// Len returns the number of resident entries, in-flight ones included.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// Reset drops every entry. In-flight computations complete for their
// own waiters but are not found by later requests. Reset is not
// eviction, and it leaves every counter untouched.
func (m *Memo[K, V]) Reset() {
	m.mu.Lock()
	m.entries = map[K]*entry[K, V]{}
	m.order.Init()
	m.mu.Unlock()
}
