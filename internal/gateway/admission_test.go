package gateway

import (
	"sync"
	"testing"
	"time"
)

func TestShedderCapacity(t *testing.T) {
	s := newShedder(2, 1)
	r1, ok := s.acquire(false)
	if !ok {
		t.Fatal("first acquire shed")
	}
	r2, ok := s.acquire(false)
	if !ok {
		t.Fatal("second acquire shed")
	}
	if _, ok := s.acquire(false); ok {
		t.Fatal("third acquire admitted over capacity 2")
	}
	r1.release()
	r3, ok := s.acquire(false)
	if !ok {
		t.Fatal("acquire after release shed")
	}
	r3.release()
	r2.release()
	if got := s.inFlight.Load(); got != 0 {
		t.Fatalf("in-flight %d after all releases", got)
	}
	if got := s.sheds.Load(); got != 1 {
		t.Fatalf("sheds %d, want 1", got)
	}
	if got := s.highWater.Load(); got != 2 {
		t.Fatalf("high water %d, want 2", got)
	}
}

// TestShedderBulkShedsFirst: bulk requests exhaust their smaller budget
// while single decides still land — the degrade path refuses batch
// traffic before interactive traffic.
func TestShedderBulkShedsFirst(t *testing.T) {
	s := newShedder(8, 2)
	var rels []slot
	for i := 0; i < 2; i++ {
		r, ok := s.acquire(true)
		if !ok {
			t.Fatalf("bulk acquire %d shed under budget", i)
		}
		rels = append(rels, r)
	}
	if _, ok := s.acquire(true); ok {
		t.Fatal("third bulk admitted over bulk budget 2")
	}
	// Bulk shed must not leak the overall slot it briefly claimed.
	if got := s.inFlight.Load(); got != 2 {
		t.Fatalf("in-flight %d after bulk shed, want 2", got)
	}
	// Singles still land.
	r, ok := s.acquire(false)
	if !ok {
		t.Fatal("single shed while bulk budget exhausted")
	}
	r.release()
	for _, r := range rels {
		r.release()
	}
}

func TestShedderDoubleReleaseIsIdempotent(t *testing.T) {
	s := newShedder(4, 2)
	r, ok := s.acquire(true)
	if !ok {
		t.Fatal("acquire shed")
	}
	r.release()
	r.release() // second call must be a no-op, not an underflow
	if got := s.inFlight.Load(); got != 0 {
		t.Fatalf("in-flight %d after double release", got)
	}
	if got := s.bulkInFlight.Load(); got != 0 {
		t.Fatalf("bulk in-flight %d after double release", got)
	}
}

func TestShedderConcurrentNeverExceedsCapacity(t *testing.T) {
	const capacity = 7
	s := newShedder(capacity, 3)
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if r, ok := s.acquire(g%3 == 0); ok {
					if n := s.inFlight.Load(); n > capacity {
						t.Errorf("in-flight %d over capacity %d", n, capacity)
					}
					r.release()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := s.inFlight.Load(); got != 0 {
		t.Fatalf("in-flight %d after drain", got)
	}
	if hw := s.highWater.Load(); hw > capacity {
		t.Fatalf("high water %d over capacity %d", hw, capacity)
	}
}

func TestTokenBucketRefill(t *testing.T) {
	tb := newTokenBuckets(10, 2, 0) // 10/s, burst 2
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	if ok, _ := tb.allow("p", now); !ok {
		t.Fatal("first request refused on a full bucket")
	}
	if ok, _ := tb.allow("p", now); !ok {
		t.Fatal("second request refused within burst")
	}
	ok, wait := tb.allow("p", now)
	if ok {
		t.Fatal("third instantaneous request allowed past burst 2")
	}
	if wait <= 0 || wait > time.Second {
		t.Fatalf("wait hint %v, want ~100ms", wait)
	}
	// One token accrues in 100ms at 10/s.
	if ok, _ := tb.allow("p", now.Add(150*time.Millisecond)); !ok {
		t.Fatal("request refused after refill interval")
	}
	// A different principal has its own bucket.
	if ok, _ := tb.allow("q", now); !ok {
		t.Fatal("second principal refused by first principal's spend")
	}
}

// TestTokenBucketTableBounded: the table never exceeds its bound; new
// principals evict rather than grow, and an evicted principal re-enters
// with a full burst (generous, never locked out).
func TestTokenBucketTableBounded(t *testing.T) {
	tb := newTokenBuckets(1, 1, bucketShards) // one entry per shard
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 10*bucketShards; i++ {
		tb.allow(principalName(i), now)
	}
	total := 0
	for i := range tb.shards {
		tb.shards[i].mu.Lock()
		total += len(tb.shards[i].m)
		tb.shards[i].mu.Unlock()
	}
	if total > bucketShards {
		t.Fatalf("bucket table holds %d entries, bound %d", total, bucketShards)
	}
}

func principalName(i int) string {
	return "jwt:user-" + string(rune('a'+i%26)) + "-" + time.Duration(i).String()
}

func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "1"},
		{50 * time.Millisecond, "1"},
		{1 * time.Second, "1"},
		{1100 * time.Millisecond, "2"},
		{2 * time.Hour, "3600"},
	}
	for _, tc := range cases {
		if got := retryAfterSeconds(tc.d); got != tc.want {
			t.Errorf("retryAfterSeconds(%v) = %s, want %s", tc.d, got, tc.want)
		}
	}
}
