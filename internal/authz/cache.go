package authz

import (
	"container/list"
	"sync"

	"securewebcom/internal/telemetry"
)

// EpochCache is the one cache type for everything a KeyCOM commit must
// invalidate: a bounded LRU under its own mutex whose entries are
// stamped with the owning Engine's invalidation epoch. The engine's
// admitted sessions, decisions and compiled DAGs, the delegation
// MintCache and DelegationVerdicts, and WebCom's per-connection verdict
// sets are all instances. The contract:
//
//   - Get serves only entries stamped with the current epoch, and
//     returns that epoch as the caller's snapshot.
//   - Put takes the snapshot the caller read before computing the value
//     and drops the value if the epoch has moved since, so work that
//     straddles Engine.Invalidate never writes its pre-commit result
//     back.
//   - The first touch at a newer epoch frees every stale entry at once.
//
// Engine.Invalidate therefore only bumps the epoch; no cache is cleared
// by anyone but itself. A nil engine pins epoch 0: entries then go only
// by LRU eviction.
type EpochCache[V any] struct {
	engine       *Engine
	hitCtr       *telemetry.Counter // mirrors of hits and misses; nil = none
	missCtr      *telemetry.Counter
	mu           sync.Mutex
	epoch        uint64 // the epoch every resident entry was stamped under
	cap          int
	ll           *list.List // front = most recent
	items        map[string]*list.Element
	hits, misses uint64
}

type lruEntry[V any] struct {
	key string
	v   V
}

// NewEpochCache builds a cache of at most capacity entries guarded by
// engine's epoch. Lookups are mirrored into tel's hitName and missName
// counters, resolved here once; an empty name is not counted.
func NewEpochCache[V any](engine *Engine, capacity int, tel *telemetry.Registry, hitName, missName string) *EpochCache[V] {
	c := &EpochCache[V]{
		engine: engine,
		cap:    capacity,
		ll:     list.New(),
		items:  make(map[string]*list.Element),
	}
	if hitName != "" {
		c.hitCtr = tel.Counter(hitName)
	}
	if missName != "" {
		c.missCtr = tel.Counter(missName)
	}
	return c
}

// Epoch returns the engine's invalidation epoch: a counter bumped by
// every Invalidate. Every EpochCache stamps its entries with it; the
// gateway reports it so callers can tell which commit a response saw.
func (e *Engine) Epoch() uint64 { return e.epoch.Load() }

// current syncs the cache to the engine's epoch, freeing every entry
// stamped under an older one, and returns it. Caller holds c.mu.
func (c *EpochCache[V]) current() uint64 {
	if c.engine == nil {
		return 0
	}
	if now := c.engine.Epoch(); now != c.epoch {
		c.epoch = now
		c.ll.Init()
		clear(c.items)
	}
	return c.epoch
}

// Get returns the live entry under key and the epoch it was looked up
// in. Pass that epoch to Put with a value computed after this call.
func (c *EpochCache[V]) Get(key string) (v V, epoch uint64, ok bool) {
	c.mu.Lock()
	epoch = c.current()
	el, ok := c.items[key]
	return c.found(el, ok), epoch, ok
}

// lookup is Get for a key held in the caller's buffer: a hit allocates
// nothing, and a caller that must Put after a miss makes the key string
// once, exactly sized, from the same bytes.
func (c *EpochCache[V]) lookup(key []byte) (v V, epoch uint64, ok bool) {
	c.mu.Lock()
	epoch = c.current()
	el, ok := c.items[string(key)]
	return c.found(el, ok), epoch, ok
}

// found finishes a lookup begun under c.mu: it touches and counts the
// entry, releases the lock and returns the value (zero on a miss).
func (c *EpochCache[V]) found(el *list.Element, ok bool) (v V) {
	hit := 0
	if ok {
		c.ll.MoveToFront(el)
		v = el.Value.(*lruEntry[V]).v
		hit = 1
	}
	c.hits += uint64(hit)
	c.misses += uint64(1 - hit)
	c.mu.Unlock()
	c.mirror(hit, 1-hit)
	return v
}

// Put caches v under key if the epoch still equals the snapshot the
// caller read before computing v; otherwise v is dropped.
func (c *EpochCache[V]) Put(key string, v V, epoch uint64) {
	c.mu.Lock()
	if c.current() == epoch {
		c.put(key, v)
	}
	c.mu.Unlock()
}

// getBatch looks up many keys under one lock acquisition: key i is
// keys[ends[i-1]:ends[i]] (from 0 for i = 0). It calls hit for each
// live entry and returns the epoch snapshot for putBatch.
func (c *EpochCache[V]) getBatch(keys []byte, ends []int, hit func(i int, v V)) (epoch uint64) {
	var hits int
	c.mu.Lock()
	epoch = c.current()
	from := 0
	for i, to := range ends {
		if el, ok := c.items[string(keys[from:to])]; ok {
			c.ll.MoveToFront(el)
			hit(i, el.Value.(*lruEntry[V]).v)
			hits++
		}
		from = to
	}
	c.hits += uint64(hits)
	c.misses += uint64(len(ends) - hits)
	c.mu.Unlock()
	c.mirror(hits, len(ends)-hits)
	return epoch
}

// putBatch is Put for many pairs under one lock acquisition.
func (c *EpochCache[V]) putBatch(keys []string, vs []V, epoch uint64) {
	c.mu.Lock()
	if c.current() == epoch {
		for i, key := range keys {
			c.put(key, vs[i])
		}
	}
	c.mu.Unlock()
}

// Len counts the live entries.
func (c *EpochCache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.current()
	return c.ll.Len()
}

// counts returns the lifetime hit and miss totals.
func (c *EpochCache[V]) counts() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// mirror adds a lookup outcome to the telemetry counters.
func (c *EpochCache[V]) mirror(hits, misses int) {
	if hits > 0 {
		c.hitCtr.Add(int64(hits))
	}
	if misses > 0 {
		c.missCtr.Add(int64(misses))
	}
}

func (c *EpochCache[V]) put(key string, v V) {
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry[V]).v = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry[V]{key: key, v: v})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[V]).key)
	}
}
