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
	tel          *telemetry.Registry
	hitName      string // telemetry counters mirrored by Get; "" = none
	missName     string
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
// counters; an empty name is not counted.
func NewEpochCache[V any](engine *Engine, capacity int, tel *telemetry.Registry, hitName, missName string) *EpochCache[V] {
	return &EpochCache[V]{
		engine:   engine,
		tel:      tel,
		hitName:  hitName,
		missName: missName,
		cap:      capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
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
	v, ok = c.get(key)
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	hits := 0
	if ok {
		hits = 1
	}
	c.mirror(hits, 1-hits)
	return v, epoch, ok
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

// getBatch looks up every key under one lock acquisition, calling hit
// for each live entry, and returns the epoch snapshot for putBatch.
func (c *EpochCache[V]) getBatch(keys []string, hit func(i int, v V)) (epoch uint64) {
	var hits int
	c.mu.Lock()
	epoch = c.current()
	for i, key := range keys {
		if v, ok := c.get(key); ok {
			hit(i, v)
			hits++
		}
	}
	c.hits += uint64(hits)
	c.misses += uint64(len(keys) - hits)
	c.mu.Unlock()
	c.mirror(hits, len(keys)-hits)
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

// len counts the live entries.
func (c *EpochCache[V]) len() int {
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
	if hits > 0 && c.hitName != "" {
		c.tel.Counter(c.hitName).Add(int64(hits))
	}
	if misses > 0 && c.missName != "" {
		c.tel.Counter(c.missName).Add(int64(misses))
	}
}

func (c *EpochCache[V]) get(key string) (V, bool) {
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]).v, true
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
