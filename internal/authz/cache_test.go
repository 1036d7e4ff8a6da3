package authz

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"securewebcom/internal/keynote"
	"securewebcom/internal/keys"
)

// invalidatingResolver fires Engine.Invalidate on its first Resolve, so a
// KeyCOM commit lands in the middle of whatever engine work resolves a
// principal first — evaluation or admission.
type invalidatingResolver struct {
	keynote.Resolver
	engine *Engine
	once   sync.Once
}

func (r *invalidatingResolver) Resolve(nameOrID string) (string, error) {
	r.once.Do(func() { r.engine.Invalidate() })
	return r.Resolver.Resolve(nameOrID)
}

// straddleFixture builds POLICY -> Kadmin -> Kbob with principals named
// rather than keyed, so both signature verification and evaluation
// consult the resolver.
func straddleFixture(t *testing.T, chkOpts []keynote.CheckerOption, engOpts ...Option) (*Engine, []*keynote.Assertion, keynote.Query) {
	t.Helper()
	ks := keys.NewKeyStore()
	admin := keys.Deterministic("Kadmin", "straddle")
	ks.Add(admin)
	ks.Add(keys.Deterministic("Kbob", "straddle"))
	policy := keynote.MustNew("POLICY", `"Kadmin"`, `app_domain=="WebCom";`)
	cred := keynote.MustNew(`"Kadmin"`, `"Kbob"`, `app_domain=="WebCom" && Role=="Manager";`)
	if err := cred.Sign(admin); err != nil {
		t.Fatal(err)
	}
	r := &invalidatingResolver{Resolver: ks}
	chk, err := keynote.NewChecker([]*keynote.Assertion{policy}, append(chkOpts, keynote.WithResolver(r))...)
	if err != nil {
		t.Fatal(err)
	}
	r.engine = NewEngine(chk, engOpts...)
	q := keynote.Query{
		Authorizers: []string{"Kbob"},
		Attributes:  map[string]string{"app_domain": "WebCom", "Role": "Manager"},
	}
	return r.engine, []*keynote.Assertion{cred}, q
}

// TestEpochCacheDropsStaleDecision: an Invalidate that fires while a
// decision is being evaluated must keep that pre-commit decision out of
// the cache.
func TestEpochCacheDropsStaleDecision(t *testing.T) {
	eng, creds, q := straddleFixture(t,
		[]keynote.CheckerOption{keynote.WithoutSignatureVerification()}, WithoutCompilation())
	s := eng.Session(creds)
	if eng.Stats().Invalidations != 0 {
		t.Fatal("admission resolved a principal; the commit must land in evaluation")
	}
	d, err := s.Decide(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Allowed || eng.Stats().Invalidations != 1 {
		t.Fatalf("allowed=%v invalidations=%d, want a grant straddling one commit", d.Allowed, eng.Stats().Invalidations)
	}
	d, err = s.Decide(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if d.Trace.CacheHit {
		t.Fatal("decision computed before the commit served from cache after it")
	}
}

// TestEpochCacheDropsStaleSession: an Invalidate that fires while a
// credential set is being admitted must keep that session out of the
// session table.
func TestEpochCacheDropsStaleSession(t *testing.T) {
	eng, creds, _ := straddleFixture(t, nil)
	s1 := eng.Session(creds)
	if len(s1.Admitted()) != 1 || eng.Stats().Invalidations != 1 {
		t.Fatalf("admitted=%d invalidations=%d, want one admission straddling one commit",
			len(s1.Admitted()), eng.Stats().Invalidations)
	}
	if s2 := eng.Session(creds); s2 == s1 {
		t.Fatal("session admitted before the commit served after it")
	}
}

// cacheRef is the reference model for EpochCache: a map plus an epoch
// counter, with LRU order kept as a use clock.
type cacheRef struct {
	cap     int
	epoch   uint64
	seen    uint64 // the epoch the model last synced to
	clock   int
	entries map[string]refEntry
}

type refEntry struct {
	v    int
	used int
}

func (r *cacheRef) sync() {
	if r.seen != r.epoch {
		r.seen = r.epoch
		r.entries = map[string]refEntry{}
	}
}

func (r *cacheRef) get(key string) (int, uint64, bool) {
	r.sync()
	e, ok := r.entries[key]
	if ok {
		r.clock++
		e.used = r.clock
		r.entries[key] = e
	}
	return e.v, r.epoch, ok
}

func (r *cacheRef) put(key string, v int, snap uint64) {
	r.sync()
	if snap != r.epoch {
		return
	}
	r.clock++
	r.entries[key] = refEntry{v: v, used: r.clock}
	for len(r.entries) > r.cap {
		oldest, min := "", 0
		for k, e := range r.entries {
			if oldest == "" || e.used < min {
				oldest, min = k, e.used
			}
		}
		delete(r.entries, oldest)
	}
}

// TestEpochCacheModel drives seeded random sequences of get,
// put-with-snapshot, Invalidate and capacity eviction against the
// reference model, and checks that no get after epoch N returns a value
// put under a snapshot older than N.
func TestEpochCacheModel(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := &Engine{}
		capacity := 1 + rng.Intn(6)
		c := NewEpochCache[int](eng, capacity, nil, "", "")
		ref := &cacheRef{cap: capacity, entries: map[string]refEntry{}}
		snapOf := map[int]uint64{} // value -> snapshot it was put under
		var snaps []uint64         // snapshots handed out by get
		next := 0
		for step := 0; step < 400; step++ {
			key := fmt.Sprintf("k%d", rng.Intn(10))
			switch op := rng.Intn(10); {
			case op < 4:
				v, snap, ok := c.Get(key)
				rv, rsnap, rok := ref.get(key)
				if ok != rok || snap != rsnap || (ok && v != rv) {
					t.Fatalf("seed %d step %d: Get(%s) = (%d,%d,%v), model (%d,%d,%v)",
						seed, step, key, v, snap, ok, rv, rsnap, rok)
				}
				if ok && snapOf[v] < eng.Epoch() {
					t.Fatalf("seed %d step %d: Get at epoch %d served a value put under %d",
						seed, step, eng.Epoch(), snapOf[v])
				}
				snaps = append(snaps, snap)
			case op < 8:
				snap := eng.Epoch()
				if len(snaps) > 0 && rng.Intn(2) == 0 {
					snap = snaps[rng.Intn(len(snaps))] // possibly stale
				}
				next++
				snapOf[next] = snap
				c.Put(key, next, snap)
				ref.put(key, next, snap)
			case op < 9:
				eng.Invalidate()
				ref.epoch++
			default:
				ref.sync()
				if got, want := c.Len(), len(ref.entries); got != want {
					t.Fatalf("seed %d step %d: len = %d, model %d", seed, step, got, want)
				}
			}
			if c.Len() > capacity {
				t.Fatalf("seed %d step %d: %d entries over capacity %d", seed, step, c.Len(), capacity)
			}
		}
	}
}

// TestEpochCacheConcurrent races readers that compute-and-put against a
// writer bumping the epoch; run under -race. Values carry the snapshot
// they were computed under, so a reader can tell a stale one.
func TestEpochCacheConcurrent(t *testing.T) {
	eng := &Engine{}
	c := NewEpochCache[uint64](eng, 8, nil, "", "")
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
				eng.Invalidate()
				runtime.Gosched()
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("k%d", rng.Intn(12))
				floor := eng.Epoch()
				v, snap, ok := c.Get(key)
				if ok && (v < floor || v != snap) {
					t.Errorf("Get after epoch %d returned a value put under %d (lookup epoch %d)", floor, v, snap)
					return
				}
				if !ok {
					c.Put(key, snap, snap)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-stopped
}
