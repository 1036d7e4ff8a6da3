package keycom

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"securewebcom/internal/faultfs"
	"securewebcom/internal/rbac"
	"securewebcom/internal/telemetry"
)

// clerkDiff adds user u to DOMA/Clerk (plus the role's grant on the
// first call so the policy is self-contained).
func clerkDiff(i int) rbac.Diff {
	d := rbac.Diff{AddedUserRole: []rbac.UserRoleEntry{
		{User: rbac.User(fmt.Sprintf("u%03d", i)), Domain: "DOMA", Role: "Clerk"}}}
	if i == 0 {
		d.AddedRolePerm = []rbac.RolePermEntry{
			{Domain: "DOMA", Role: "Clerk", ObjectType: "SalariesDB.Component", Permission: "Access"}}
	}
	return d
}

func mustOpen(t *testing.T, fs faultfs.FS, opts StoreOptions) *Store {
	t.Helper()
	opts.FS = fs
	if opts.Now == nil {
		opts.Now = func() int64 { return 1136214245 }
	}
	st, err := OpenStore("store", opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStoreDurableRoundTrip(t *testing.T) {
	fs := faultfs.NewMemFS()
	st := mustOpen(t, fs, StoreOptions{Tel: telemetry.NewRegistry()})
	for i := 0; i < 5; i++ {
		if _, err := st.Commit("admin", clerkDiff(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := st.Policy()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := mustOpen(t, fs, StoreOptions{})
	if st2.Seq() != 5 {
		t.Fatalf("recovered seq = %d, want 5", st2.Seq())
	}
	if !st2.Policy().Equal(want) {
		t.Fatalf("recovered policy differs:\n%s\nvs\n%s", st2.Policy(), want)
	}
	if !st2.UserHolds("u003", "SalariesDB.Component", "Access") {
		t.Fatal("sharded index missing recovered principal")
	}
	if ri := st2.RecoveryInfo(); ri.Replayed != 5 || ri.TornWALBytes != 0 {
		t.Fatalf("RecoveryInfo = %+v", ri)
	}
}

func TestStoreSnapshotTruncatesWAL(t *testing.T) {
	fs := faultfs.NewMemFS()
	st := mustOpen(t, fs, StoreOptions{SnapshotEvery: 3})
	for i := 0; i < 7; i++ {
		if _, err := st.Commit("admin", clerkDiff(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := st.Policy()
	st.Close()

	// Two snapshots happened (after commits 3 and 6); the WAL holds only
	// commit 7.
	walData, err := fs.ReadFile("store/wal.log")
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := parseWAL[walRecord](walData, 6)
	if err != nil || len(recs) != 1 || recs[0].Seq != 7 {
		t.Fatalf("post-snapshot wal = %d records (%v), want the single seq-7 frame", len(recs), err)
	}

	st2 := mustOpen(t, fs, StoreOptions{})
	if ri := st2.RecoveryInfo(); ri.SnapshotSeq != 6 || ri.Replayed != 1 {
		t.Fatalf("RecoveryInfo = %+v, want snapshot at 6 + 1 replayed", ri)
	}
	if !st2.Policy().Equal(want) {
		t.Fatal("recovered policy differs after snapshot + tail replay")
	}
	// The audit chain is never truncated: all 7 commits, from seq 1.
	auditData, _ := fs.ReadFile("store/audit.log")
	chain, err := VerifyAuditChain(auditData)
	if err != nil || len(chain) != 7 {
		t.Fatalf("audit chain = %d records, %v", len(chain), err)
	}
	if chain[6].Hash != st2.AuditHead() {
		t.Fatal("audit head does not match recovered store")
	}
}

func TestStoreTornWALTailDiscarded(t *testing.T) {
	fs := faultfs.NewMemFS()
	st := mustOpen(t, fs, StoreOptions{})
	for i := 0; i < 3; i++ {
		if _, err := st.Commit("admin", clerkDiff(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := st.Policy()
	st.Close()

	// A torn frame: header promising more bytes than follow.
	f, err := fs.OpenFile("store/wal.log", os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0, 0, 1, 0, 0xde, 0xad, 0xbe, 0xef, 'x'})
	f.Sync()
	f.Close()

	st2 := mustOpen(t, fs, StoreOptions{})
	if st2.Seq() != 3 || !st2.Policy().Equal(want) {
		t.Fatalf("torn tail changed recovered state: seq %d", st2.Seq())
	}
	if ri := st2.RecoveryInfo(); ri.TornWALBytes != 9 {
		t.Fatalf("TornWALBytes = %d, want 9", ri.TornWALBytes)
	}
	// The reopen truncated the torn tail durably: a third open replays
	// cleanly with nothing left to cut.
	st2.Close()
	st3 := mustOpen(t, fs, StoreOptions{})
	if ri := st3.RecoveryInfo(); ri.TornWALBytes != 0 {
		t.Fatalf("torn tail survived reopen: %+v", ri)
	}
}

func TestStoreWALSeqGapRefusesOpen(t *testing.T) {
	fs := faultfs.NewMemFS()
	st := mustOpen(t, fs, StoreOptions{})
	for i := 0; i < 3; i++ {
		st.Commit("admin", clerkDiff(i))
	}
	st.Close()

	// Surgically remove the middle frame: checksum-valid records with a
	// sequence gap are corruption, not a torn tail.
	data, _ := fs.ReadFile("store/wal.log")
	recs, _, err := parseWAL[walRecord](data, 0)
	if err != nil || len(recs) != 3 {
		t.Fatal("fixture wal unreadable")
	}
	frame0, _ := encodeWALRecord(&recs[0])
	frame2, _ := encodeWALRecord(&recs[2])
	if err := fs.WriteFile("store/wal.log", append(frame0, frame2...), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore("store", StoreOptions{FS: fs}); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("gapped wal open err = %v, want ErrWALCorrupt", err)
	}
}

func TestStoreAuditTamperDetected(t *testing.T) {
	fs := faultfs.NewMemFS()
	st := mustOpen(t, fs, StoreOptions{})
	for i := 0; i < 4; i++ {
		st.Commit("admin", clerkDiff(i))
	}
	st.Close()

	// Flip one byte in the middle of the chain.
	data, _ := fs.ReadFile("store/audit.log")
	if err := fs.DamageFile("store/audit.log", len(data)/2, 'X'); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore("store", StoreOptions{FS: fs}); !errors.Is(err, ErrAuditTampered) {
		t.Fatalf("tampered audit open err = %v, want ErrAuditTampered", err)
	}
	// Standalone verification (the policytool path) reports it too.
	tampered, _ := fs.ReadFile("store/audit.log")
	if _, err := VerifyAuditChain(tampered); !errors.Is(err, ErrAuditTampered) {
		t.Fatalf("VerifyAuditChain = %v", err)
	}
}

func TestStoreAuditTruncationDetectedAndSingleLineRepaired(t *testing.T) {
	fs := faultfs.NewMemFS()
	st := mustOpen(t, fs, StoreOptions{})
	for i := 0; i < 4; i++ {
		st.Commit("admin", clerkDiff(i))
	}
	head := st.AuditHead()
	st.Close()

	data, _ := fs.ReadFile("store/audit.log")
	lines := 0
	cut := []int{}
	for i, b := range data {
		if b == '\n' {
			lines++
			cut = append(cut, i+1)
		}
	}
	if lines != 4 {
		t.Fatalf("audit lines = %d", lines)
	}

	// Dropping the final line is the reachable crash state (the commit's
	// WAL fsync landed, the audit fsync did not): recovery rebuilds it
	// from the embedded WAL copy, bit for bit.
	if err := fs.WriteFile("store/audit.log", data[:cut[2]], 0o600); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStore("store", StoreOptions{FS: fs})
	if err != nil {
		t.Fatalf("single-line repair failed: %v", err)
	}
	if ri := st2.RecoveryInfo(); ri.AuditRepaired != 1 {
		t.Fatalf("AuditRepaired = %d, want 1", ri.AuditRepaired)
	}
	if st2.AuditHead() != head {
		t.Fatal("repaired chain head differs")
	}
	st2.Close()
	repaired, _ := fs.ReadFile("store/audit.log")
	if string(repaired) != string(data) {
		t.Fatal("repaired audit log is not byte-identical to the original")
	}

	// Dropping two lines cannot be a crash artifact: refuse to open.
	if err := fs.WriteFile("store/audit.log", data[:cut[1]], 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore("store", StoreOptions{FS: fs}); !errors.Is(err, ErrAuditTruncated) {
		t.Fatalf("truncated audit open err = %v, want ErrAuditTruncated", err)
	}
}

func TestStoreENOSPCRefusesCommitKeepsServing(t *testing.T) {
	fs := faultfs.NewMemFS()
	st := mustOpen(t, fs, StoreOptions{})
	if _, err := st.Commit("admin", clerkDiff(0)); err != nil {
		t.Fatal(err)
	}
	fs.SetPlan(&faultfs.CrashPlan{Op: fs.Ops() + 1, Mode: faultfs.ENOSPC})
	if _, err := st.Commit("admin", clerkDiff(1)); !errors.Is(err, faultfs.ErrNoSpace) {
		t.Fatalf("commit under ENOSPC err = %v", err)
	}
	// The refused commit left no trace: reads keep serving the last
	// acknowledged state, and once space returns commits flow again.
	if st.Seq() != 1 || st.UserHolds("u001", "SalariesDB.Component", "Access") {
		t.Fatal("refused commit leaked into the catalogue")
	}
	fs.SetDiskLimit(-1)
	if _, err := st.Commit("admin", clerkDiff(1)); err != nil {
		t.Fatalf("commit after space recovered: %v", err)
	}
	want := st.Policy()
	st.Close()
	st2 := mustOpen(t, fs, StoreOptions{})
	if st2.Seq() != 2 || !st2.Policy().Equal(want) {
		t.Fatal("reopened store disagrees after ENOSPC episode")
	}
	auditData, _ := fs.ReadFile("store/audit.log")
	if chain, err := VerifyAuditChain(auditData); err != nil || len(chain) != 2 {
		t.Fatalf("audit chain after ENOSPC = %d records, %v", len(chain), err)
	}
}

// TestShardedIndexMatchesOracle drives the sharded index and a plain
// rbac.Policy with the same random diff stream and checks every
// composed decision agrees.
func TestShardedIndexMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	idx := newShardedIndex()
	oracle := rbac.NewPolicy()
	users := []rbac.User{"alice", "bob", "carol", "dave", "erin"}
	roles := []rbac.Role{"Clerk", "Manager", "Auditor"}
	domains := []rbac.Domain{"DOMA", "DOMB"}
	perms := []rbac.Permission{"Access", "Launch"}
	for step := 0; step < 2000; step++ {
		var d rbac.Diff
		rp := rbac.RolePermEntry{
			Domain: domains[rng.Intn(2)], Role: roles[rng.Intn(3)],
			ObjectType: "SalariesDB.Component", Permission: perms[rng.Intn(2)]}
		ur := rbac.UserRoleEntry{
			User: users[rng.Intn(5)], Domain: domains[rng.Intn(2)], Role: roles[rng.Intn(3)]}
		switch rng.Intn(4) {
		case 0:
			d.AddedRolePerm = []rbac.RolePermEntry{rp}
		case 1:
			d.RemovedRolePerm = []rbac.RolePermEntry{rp}
		case 2:
			d.AddedUserRole = []rbac.UserRoleEntry{ur}
		default:
			d.RemovedUserRole = []rbac.UserRoleEntry{ur}
		}
		idx.apply(d)
		oracle.Apply(d)
		u := users[rng.Intn(5)]
		p := perms[rng.Intn(2)]
		if got, want := idx.userHolds(u, "SalariesDB.Component", p), oracle.UserHolds(u, "SalariesDB.Component", p); got != want {
			t.Fatalf("step %d: index says %v, oracle says %v for %s/%s", step, got, want, u, p)
		}
	}
	// rebuild from the oracle must agree everywhere too.
	idx2 := newShardedIndex()
	idx2.rebuild(oracle)
	for _, u := range users {
		for _, p := range perms {
			if idx2.userHolds(u, "SalariesDB.Component", p) != oracle.UserHolds(u, "SalariesDB.Component", p) {
				t.Fatalf("rebuilt index disagrees for %s/%s", u, p)
			}
		}
	}
}

// TestCommitHooksFireOutsideLockInOrder is the regression test for the
// hook-dispatch fix: hooks used to fire while holding the service lock,
// so a hook touching the service deadlocked — exactly what recovery
// replay needs to do. The hook below takes s.mu itself (deadlock under
// the old dispatch) and records the ticket being dispatched; concurrent
// commits must produce the strictly increasing sequence 1..N.
func TestCommitHooksFireOutsideLockInOrder(t *testing.T) {
	f := newFigure8(t)
	var mu sync.Mutex
	var order []uint64
	f.svc.OnCommit(func() {
		f.svc.turnMu.Lock()
		ticket := f.svc.turnDone + 1
		f.svc.turnMu.Unlock()
		// Would deadlock if dispatch still held the service lock.
		f.svc.mu.Lock()
		f.svc.mu.Unlock() //nolint:staticcheck // empty section proves the lock is free
		mu.Lock()
		order = append(order, ticket)
		mu.Unlock()
	})
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := &UpdateRequest{Requester: f.admin.PublicID(), Diff: addUserDiff(fmt.Sprintf("user%d", i))}
			if err := req.Sign(f.admin); err != nil {
				t.Error(err)
				return
			}
			if err := f.svc.Apply(context.Background(), req); err != nil {
				t.Errorf("apply %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if len(order) != n {
		t.Fatalf("hooks fired %d times, want %d", len(order), n)
	}
	for i, got := range order {
		if got != uint64(i+1) {
			t.Fatalf("hook order = %v, want tickets 1..%d in order", order, n)
		}
	}
}

// TestServiceStoreRecoveryReplaysIntoSystem is the restart story at the
// service layer: commit through a store-backed service, "restart" into
// a fresh catalogue, attach the recovered store — the catalogue, the
// decision caches and the commit hooks must all see exactly the
// acknowledged history, and a denied update stays denied.
func TestServiceStoreRecoveryReplaysIntoSystem(t *testing.T) {
	ctx := context.Background()
	fs := faultfs.NewMemFS()

	f := newFigure8(t)
	st := mustOpen(t, fs, StoreOptions{})
	if err := f.svc.AttachStore(ctx, st); err != nil {
		t.Fatal(err)
	}
	req := &UpdateRequest{Requester: f.admin.PublicID(), Diff: addUserDiff("Alice")}
	if err := req.Sign(f.admin); err != nil {
		t.Fatal(err)
	}
	if err := f.svc.Apply(ctx, req); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Restart: a brand-new figure8 world — empty catalogue, fresh
	// engines — pointed at the surviving store directory.
	g := newFigure8(t)
	hookFired := 0
	g.svc.OnCommit(func() { hookFired++ })
	st2 := mustOpen(t, fs, StoreOptions{})
	if err := g.svc.AttachStore(ctx, st2); err != nil {
		t.Fatal(err)
	}
	if hookFired != 1 {
		t.Fatalf("recovery fired hooks %d times, want 1", hookFired)
	}
	if got, _ := g.cat.CheckAccess(ctx, "Alice", "DOMA", "SalariesDB.Component", "Access"); !got {
		t.Fatal("recovered catalogue lost the committed credential")
	}
	ext := &ExtractRequest{Requester: g.admin.PublicID()}
	if err := ext.Sign(g.admin); err != nil {
		t.Fatal(err)
	}
	p, err := g.svc.Extract(ctx, ext)
	if err != nil {
		t.Fatal(err)
	}
	if !p.HasUserRole("Alice", "DOMA", "Clerk") {
		t.Fatal("extract after recovery missing committed row")
	}
	// A request denied before the crash is still denied after recovery.
	bad := &UpdateRequest{Requester: g.outsider.PublicID(), Diff: addUserDiff("Eve")}
	if err := bad.Sign(g.outsider); err != nil {
		t.Fatal(err)
	}
	if err := g.svc.Apply(ctx, bad); err == nil {
		t.Fatal("outsider update accepted after recovery")
	}
	// Seq 1 is the baseline (seeded grants), seq 2 the Alice commit; the
	// refused update must not have advanced it.
	if st2.Seq() != 2 {
		t.Fatalf("store at seq %d after recovery + refusal, want 2", st2.Seq())
	}
}

// TestStoreBackedCommitIsDurableBeforeAck: the acknowledgement order —
// WAL fsync, audit fsync, only then the in-memory apply — means a
// commit the service acknowledged is on disk even if the process dies
// immediately after.
func TestStoreBackedCommitIsDurableBeforeAck(t *testing.T) {
	ctx := context.Background()
	fs := faultfs.NewMemFS()
	f := newFigure8(t)
	st := mustOpen(t, fs, StoreOptions{})
	if err := f.svc.AttachStore(ctx, st); err != nil {
		t.Fatal(err)
	}
	req := &UpdateRequest{Requester: f.admin.PublicID(), Diff: addUserDiff("Alice")}
	if err := req.Sign(f.admin); err != nil {
		t.Fatal(err)
	}
	if err := f.svc.Apply(ctx, req); err != nil {
		t.Fatal(err)
	}
	// Pull the plug without Close: only fsynced bytes survive.
	fs.Recover()
	st2 := mustOpen(t, fs, StoreOptions{})
	if !st2.UserHolds("Alice", "SalariesDB.Component", "Access") {
		t.Fatal("acknowledged commit did not survive an immediate crash")
	}
}

func TestServerShutdownDrains(t *testing.T) {
	f := newFigure8(t)
	srv, err := ListenAndServe(f.svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	req := &UpdateRequest{Requester: f.admin.PublicID(), Diff: addUserDiff("Alice")}
	if err := req.Sign(f.admin); err != nil {
		t.Fatal(err)
	}
	if err := Submit(srv.Addr(), req); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The listener is gone: new submissions fail.
	again := &UpdateRequest{Requester: f.admin.PublicID(), Diff: addUserDiff("Bob")}
	if err := again.Sign(f.admin); err != nil {
		t.Fatal(err)
	}
	if err := Submit(srv.Addr(), again); err == nil {
		t.Fatal("submit succeeded after shutdown")
	}
	// Shutdown is idempotent.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}
