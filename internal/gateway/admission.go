package gateway

// Admission control for the authorise-as-a-service front door. Two
// mechanisms compose, in the order a request meets them:
//
//   - a concurrency shedder: a fixed budget of in-flight decides, with a
//     smaller sub-budget for bulk requests so that under pressure the
//     expensive batch traffic is refused first and cheap single decides
//     keep landing (the degrade path the SOA-governance literature calls
//     graceful refusal). Shedding happens before the token is verified
//     or any engine state is touched, so a shed request is never
//     half-executed.
//
//   - per-principal token buckets: once a token has been verified, the
//     authenticated principal's request rate is bounded, so one hot (or
//     hostile) subject cannot starve the rest. The table is sharded and
//     hard-bounded; under principal churn it evicts rather than grows.
//
// Both refusals carry a Retry-After hint: the shedder's is the fixed
// back-off for "the box is full", the bucket's is the exact time until
// the principal's next token accrues.

import (
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Shedder defaults.
const (
	// DefaultMaxInFlight bounds concurrently executing decide requests.
	DefaultMaxInFlight = 256
	// DefaultMaxBulkInFlight bounds the bulk-decide share of the budget.
	DefaultMaxBulkInFlight = 64
	// ShedRetryAfter is the Retry-After hint on a concurrency shed.
	ShedRetryAfter = 1 * time.Second
)

// shedder is a two-tier concurrency limiter. Acquire is lock-free.
type shedder struct {
	capacity     int64
	bulkCapacity int64

	inFlight     atomic.Int64
	bulkInFlight atomic.Int64
	highWater    atomic.Int64
	sheds        atomic.Int64
	admitted     atomic.Int64
}

func newShedder(capacity, bulkCapacity int) *shedder {
	if capacity <= 0 {
		capacity = DefaultMaxInFlight
	}
	if bulkCapacity <= 0 || bulkCapacity > capacity {
		bulkCapacity = capacity / 4
		if bulkCapacity == 0 {
			bulkCapacity = 1
		}
	}
	return &shedder{capacity: int64(capacity), bulkCapacity: int64(bulkCapacity)}
}

// slot is one claimed place in the shedder's budget.
type slot struct {
	s          *shedder
	bulk, held bool
}

// acquire claims an in-flight slot (and, for bulk requests, a bulk
// slot). ok=false means the request must be shed; on ok=true the caller
// must release the slot. Releasing it again is a no-op.
func (s *shedder) acquire(bulk bool) (sl slot, ok bool) {
	for {
		cur := s.inFlight.Load()
		if cur >= s.capacity {
			s.sheds.Add(1)
			return slot{}, false
		}
		if !s.inFlight.CompareAndSwap(cur, cur+1) {
			continue
		}
		break
	}
	if bulk {
		for {
			cur := s.bulkInFlight.Load()
			if cur >= s.bulkCapacity {
				s.inFlight.Add(-1)
				s.sheds.Add(1)
				return slot{}, false
			}
			if s.bulkInFlight.CompareAndSwap(cur, cur+1) {
				break
			}
		}
	}
	s.admitted.Add(1)
	// High-water mark: the deepest concurrency ever admitted, the number
	// the chaos suite checks against the configured capacity.
	for {
		n := s.inFlight.Load()
		hw := s.highWater.Load()
		if n <= hw || s.highWater.CompareAndSwap(hw, n) {
			break
		}
	}
	return slot{s: s, bulk: bulk, held: true}, true
}

// release returns the slot to the budget, once.
func (sl *slot) release() {
	if !sl.held {
		return
	}
	sl.held = false
	if sl.bulk {
		sl.s.bulkInFlight.Add(-1)
	}
	sl.s.inFlight.Add(-1)
}

// Token-bucket defaults.
const (
	// DefaultRatePerPrincipal is the steady-state decide rate one
	// principal may sustain, in requests per second.
	DefaultRatePerPrincipal = 200.0
	// DefaultBurst is the bucket depth: the burst a quiet principal may
	// fire instantly.
	DefaultBurst = 100.0
	// DefaultMaxPrincipals bounds the whole bucket table.
	DefaultMaxPrincipals = 65536
	// bucketShards spreads the table's lock; must be a power of two.
	bucketShards = 64
)

type bucket struct {
	tokens float64
	last   time.Time
}

type bucketShard struct {
	mu sync.Mutex
	m  map[string]*bucket
}

// tokenBuckets is a bounded, sharded per-principal rate limiter.
type tokenBuckets struct {
	rate     float64 // tokens per second
	burst    float64
	perShard int // eviction bound per shard
	shards   [bucketShards]bucketShard
}

func newTokenBuckets(rate, burst float64, maxPrincipals int) *tokenBuckets {
	if rate <= 0 {
		rate = DefaultRatePerPrincipal
	}
	if burst <= 0 {
		burst = DefaultBurst
	}
	if maxPrincipals <= 0 {
		maxPrincipals = DefaultMaxPrincipals
	}
	perShard := maxPrincipals / bucketShards
	if perShard < 1 {
		perShard = 1
	}
	tb := &tokenBuckets{rate: rate, burst: burst, perShard: perShard}
	for i := range tb.shards {
		tb.shards[i].m = make(map[string]*bucket)
	}
	return tb
}

func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// allow spends one token from principal's bucket. When the bucket is
// dry it returns false and the duration until the next token accrues —
// the Retry-After hint.
func (tb *tokenBuckets) allow(principal string, now time.Time) (bool, time.Duration) {
	sh := &tb.shards[fnv32(principal)&(bucketShards-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	b, ok := sh.m[principal]
	if !ok {
		if len(sh.m) >= tb.perShard {
			// Bounded table: evict one arbitrary entry. The evicted
			// principal merely refills to a full burst — eviction can only
			// ever be generous, never lock a principal out.
			for k := range sh.m {
				delete(sh.m, k)
				break
			}
		}
		b = &bucket{tokens: tb.burst, last: now}
		sh.m[principal] = b
	}
	if dt := now.Sub(b.last); dt > 0 {
		b.tokens = math.Min(tb.burst, b.tokens+dt.Seconds()*tb.rate)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / tb.rate * float64(time.Second))
	return false, wait
}

// retryAfterSeconds renders a Retry-After value, rounding up and never
// below one second (a zero hint would invite an immediate retry storm).
func retryAfterSeconds(d time.Duration) string {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	if secs > 3600 {
		secs = 3600
	}
	return strconv.FormatInt(secs, 10)
}
