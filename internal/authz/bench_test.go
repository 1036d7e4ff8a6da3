package authz

import (
	"context"
	"fmt"
	"testing"

	"securewebcom/internal/keynote"
)

// BenchmarkSeedCheck is the pre-engine baseline: every call pays full
// admission — signature verification, canonicalisation, fixpoint — the
// way the stack and WebCom dispatch paths did before internal/authz.
func BenchmarkSeedCheck(b *testing.B) {
	f := newFixture(b)
	q := f.query("Manager")
	creds := []*keynote.Assertion{f.cred}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.chk.Check(q, creds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionCold measures handshake cost: admission (one Ed25519
// verification per credential) plus fingerprinting, on an engine that
// has never seen the set.
func BenchmarkSessionCold(b *testing.B) {
	f := newFixture(b)
	creds := []*keynote.Assertion{f.cred}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine(f.chk)
		if s := e.Session(creds); len(s.Admitted()) != 1 {
			b.Fatal("admission failed")
		}
	}
}

// BenchmarkSessionWarm measures a reconnecting client: the fingerprint
// is already admitted, so Session is a hash plus a map hit.
func BenchmarkSessionWarm(b *testing.B) {
	f := newFixture(b)
	creds := []*keynote.Assertion{f.cred}
	f.engine.Session(creds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := f.engine.Session(creds); len(s.Admitted()) != 1 {
			b.Fatal("admission failed")
		}
	}
}

// BenchmarkDecideWarm is the WebCom dispatch hot path: a repeated query
// on an admitted session, served from the decision cache.
func BenchmarkDecideWarm(b *testing.B) {
	f := newFixture(b)
	s := f.engine.Session([]*keynote.Assertion{f.cred})
	q := f.query("Manager")
	ctx := context.Background()
	if _, err := s.Decide(ctx, q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := s.Decide(ctx, q)
		if err != nil || !d.Allowed {
			b.Fatal("warm decide failed")
		}
	}
}

// BenchmarkDecideCold is the tentpole number: a never-seen query on an
// admitted, compiled session — every iteration misses the decision
// cache and runs the full compiled fixpoint (bytecode condition tests,
// dense-array delegation passes). This is the cost a fresh request pays
// before the cache has ever seen it; the seed path (BenchmarkSeedCheck)
// paid ~67µs here, the compiled DAG must stay under 10µs.
func BenchmarkDecideCold(b *testing.B) {
	f := newFixture(b)
	s := f.engine.Session([]*keynote.Assertion{f.cred})
	if !s.CompiledOK() {
		b.Fatal("session not compiled")
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := f.query(fmt.Sprintf("Role-%d", i))
		if _, err := s.Decide(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecideColdInterpreted is the same cold-miss loop with
// compilation disabled: the tree-walking interpreter price the compiled
// DAG is measured against.
func BenchmarkDecideColdInterpreted(b *testing.B) {
	f := newFixture(b)
	eng := NewEngine(f.chk, WithoutCompilation())
	s := eng.Session([]*keynote.Assertion{f.cred})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := f.query(fmt.Sprintf("Role-%d", i))
		if _, err := s.Decide(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

func bulkQueries(f *fixture, n, salt int) []keynote.Query {
	qs := make([]keynote.Query, n)
	for i := range qs {
		qs[i] = f.query(fmt.Sprintf("Role-%d-%d", salt, i))
	}
	return qs
}

// BenchmarkDecideBulk measures the vectorised path on cached batches:
// one span, one telemetry observation and two cache transactions per
// batch, so per-query cost drops below a warm single Decide as the
// batch grows.
func BenchmarkDecideBulk(b *testing.B) {
	for _, batch := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("batch-%d", batch), func(b *testing.B) {
			f := newFixture(b)
			s := f.engine.Session([]*keynote.Assertion{f.cred})
			ctx := context.Background()
			qs := bulkQueries(f, batch, 0)
			if _, err := s.DecideBulk(ctx, qs); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.DecideBulk(ctx, qs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/query")
		})
	}
}

// BenchmarkDecideBulkCold is the vectorised miss path: every batch is
// novel, so each query runs the compiled fixpoint, but valuation setup
// and cache locking amortise across the batch.
func BenchmarkDecideBulkCold(b *testing.B) {
	for _, batch := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("batch-%d", batch), func(b *testing.B) {
			f := newFixture(b)
			s := f.engine.Session([]*keynote.Assertion{f.cred})
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				qs := bulkQueries(f, batch, i+1)
				if _, err := s.DecideBulk(ctx, qs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/query")
		})
	}
}

// BenchmarkDecideWarmMany is the unbatched counterpart of
// BenchmarkDecideBulk: the same 100 distinct cached queries decided
// one Decide call at a time. This is the honest baseline for the bulk
// amortisation gate — BenchmarkDecideWarm repeats a single query, so
// its cache line and LRU slot stay hot in a way no real dispatch
// stream is.
func BenchmarkDecideWarmMany(b *testing.B) {
	f := newFixture(b)
	s := f.engine.Session([]*keynote.Assertion{f.cred})
	ctx := context.Background()
	qs := bulkQueries(f, 100, 0)
	for _, q := range qs {
		if _, err := s.Decide(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			if _, err := s.Decide(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(qs)), "ns/query")
}
