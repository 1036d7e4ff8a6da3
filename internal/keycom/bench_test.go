package keycom

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"securewebcom/internal/faultfs"
	"securewebcom/internal/rbac"
)

// Store benchmarks at catalogue scale: 10k and 100k principals. Commit
// and recovery run on the real disk (faultfs.OS on a temp dir) so the
// fsync cost the durability guarantee is built on is measured, not
// hidden; the UserHolds read path never touches disk, so it runs on a
// MemFS-backed store and measures the locked policy lookup alone.

// benchSizes are the seeded principal counts.
var benchSizes = []int{10_000, 100_000}

// benchBatch is the users-per-commit granularity used to seed large
// stores: big batches keep seeding to a few hundred fsyncs while still
// crossing snapshot boundaries at the default cadence.
const benchBatch = 1000

// seedDiff returns the i-th seeding batch: benchBatch users joining
// DOMA/Clerk (batch 0 also grants the role its permission).
func seedDiff(i int) rbac.Diff {
	var d rbac.Diff
	if i == 0 {
		d.AddedRolePerm = []rbac.RolePermEntry{
			{Domain: "DOMA", Role: "Clerk", ObjectType: "SalariesDB.Component", Permission: "Access"}}
	}
	for j := 0; j < benchBatch; j++ {
		d.AddedUserRole = append(d.AddedUserRole, rbac.UserRoleEntry{
			User: rbac.User(fmt.Sprintf("u%06d", i*benchBatch+j)), Domain: "DOMA", Role: "Clerk"})
	}
	return d
}

// seedStore fills a store with n principals in benchBatch-sized commits.
func seedStore(b *testing.B, st *Store, n int) {
	b.Helper()
	for i := 0; i < n/benchBatch; i++ {
		if _, err := st.Commit("seed", seedDiff(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreCommit(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("principals-%d", n), func(b *testing.B) {
			st, err := OpenStore(filepath.Join(b.TempDir(), "store"), StoreOptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			seedStore(b, st, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := rbac.Diff{AddedUserRole: []rbac.UserRoleEntry{
					{User: rbac.User(fmt.Sprintf("w%09d", i)), Domain: "DOMA", Role: "Clerk"}}}
				if _, err := st.Commit("bench", d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkStoreUserHolds(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("principals-%d", n), func(b *testing.B) {
			st, err := OpenStore("store", StoreOptions{FS: faultfs.NewMemFS(), SnapshotEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			seedStore(b, st, n)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					u := rbac.User(fmt.Sprintf("u%06d", i%n))
					if !st.UserHolds(u, "SalariesDB.Component", "Access") {
						b.Fatalf("seeded principal %s lost access", u)
					}
					i++
				}
			})
		})
	}
}

// --- 1M-principal tier -------------------------------------------------
//
// The million-principal tier is opt-in (KEYCOM_BENCH_1M=1) because
// seeding it writes tens of megabytes of WAL and takes tens of seconds;
// the default tiers stay fast enough for every `make bench` run. Seeding
// uses 20k-user batches — 50 commits total — so setup is bounded by a
// handful of fsyncs rather than a thousand.
//
// Commit latency at this scale is dominated by the snapshot cadence: a
// full-catalogue snapshot at 1M principals writes ~10^6 JSON rows, and
// the default every-64-commits cadence folds that cost into the commit
// stream. That is the intended durability cost model; BENCH_keycom.json
// records the measured number so regressions are judged against it
// rather than against the 10k/100k tiers.

const (
	bench1MSize  = 1_000_000
	bench1MBatch = 20_000
)

func skipUnless1M(b *testing.B) {
	b.Helper()
	if os.Getenv("KEYCOM_BENCH_1M") == "" {
		b.Skip("1M-principal tier is opt-in: set KEYCOM_BENCH_1M=1")
	}
}

// seedStore1M fills a store with bench1MSize principals in bench1MBatch
// commits (batch 0 also grants Clerk its permission, like seedDiff).
func seedStore1M(b *testing.B, st *Store) {
	b.Helper()
	for i := 0; i < bench1MSize/bench1MBatch; i++ {
		var d rbac.Diff
		if i == 0 {
			d.AddedRolePerm = []rbac.RolePermEntry{
				{Domain: "DOMA", Role: "Clerk", ObjectType: "SalariesDB.Component", Permission: "Access"}}
		}
		for j := 0; j < bench1MBatch; j++ {
			d.AddedUserRole = append(d.AddedUserRole, rbac.UserRoleEntry{
				User: rbac.User(fmt.Sprintf("u%07d", i*bench1MBatch+j)), Domain: "DOMA", Role: "Clerk"})
		}
		if _, err := st.Commit("seed", d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreCommit1M appends single-user diffs to a real-disk store
// holding one million principals, with the default snapshot cadence —
// the commit-latency number quoted in BENCH_keycom.json.
func BenchmarkStoreCommit1M(b *testing.B) {
	skipUnless1M(b)
	st, err := OpenStore(filepath.Join(b.TempDir(), "store"), StoreOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	seedStore1M(b, st)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := rbac.Diff{AddedUserRole: []rbac.UserRoleEntry{
			{User: rbac.User(fmt.Sprintf("w%09d", i)), Domain: "DOMA", Role: "Clerk"}}}
		if _, err := st.Commit("bench", d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreUserHolds1M is the read path against a
// million-principal catalogue (MemFS; no disk in the loop).
func BenchmarkStoreUserHolds1M(b *testing.B) {
	skipUnless1M(b)
	st, err := OpenStore("store", StoreOptions{FS: faultfs.NewMemFS(), SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	seedStore1M(b, st)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			u := rbac.User(fmt.Sprintf("u%07d", i%bench1MSize))
			if !st.UserHolds(u, "SalariesDB.Component", "Access") {
				b.Fatalf("seeded principal %s lost access", u)
			}
			i++
		}
	})
}

func BenchmarkStoreRecover(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("principals-%d", n), func(b *testing.B) {
			dir := filepath.Join(b.TempDir(), "store")
			st, err := OpenStore(dir, StoreOptions{})
			if err != nil {
				b.Fatal(err)
			}
			seedStore(b, st, n)
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := OpenStore(dir, StoreOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if got := st.Policy().Len(); got < n {
					b.Fatalf("recovered %d rows, seeded %d principals", got, n)
				}
				st.Close()
			}
		})
	}
}
