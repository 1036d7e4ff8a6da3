package keycom

import (
	"errors"
	"fmt"
	"testing"

	"securewebcom/internal/faultfs"
	"securewebcom/internal/rbac"
)

// The crash-recovery chaos suite: PR 2 proved the network layer safe
// under injected loss and reorder; this suite does the same for disk.
// A fixed workload of commits (crossing two snapshot boundaries, so
// mid-snapshot and mid-truncation crash points are on the schedule) is
// run once cleanly to count the filesystem's mutating operations, then
// re-run once per (operation, fault mode) pair with the fault armed at
// exactly that operation. After every crash the store must reopen and
// serve exactly the acknowledged history — or the acknowledged history
// plus the one complete in-flight commit whose WAL fsync landed before
// the lights went out — never a half-applied update.

const (
	chaosCommits   = 8
	chaosSnapEvery = 3
)

func chaosNow() int64 { return 1136214245 }

// chaosExpected returns expected[i] = the policy after the first i
// commits of the chaos workload.
func chaosExpected(t *testing.T) []*rbac.Policy {
	t.Helper()
	expected := []*rbac.Policy{rbac.NewPolicy()}
	p := rbac.NewPolicy()
	for i := 0; i < chaosCommits; i++ {
		p.Apply(clerkDiff(i))
		expected = append(expected, p.Clone())
	}
	return expected
}

// chaosOps counts the mutating filesystem operations of one clean
// workload run — the crash-point schedule.
func chaosOps(t *testing.T) int {
	t.Helper()
	fs := faultfs.NewMemFS()
	st := mustOpen(t, fs, StoreOptions{SnapshotEvery: chaosSnapEvery, Now: chaosNow})
	for i := 0; i < chaosCommits; i++ {
		if _, err := st.Commit("admin", clerkDiff(i)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	return fs.Ops()
}

func TestCrashRecoveryChaosSuite(t *testing.T) {
	totalOps := chaosOps(t)
	expected := chaosExpected(t)
	if totalOps < 3*chaosCommits {
		t.Fatalf("workload performs only %d fs operations", totalOps)
	}
	modes := []faultfs.Mode{faultfs.CrashHard, faultfs.CrashTornWrite, faultfs.CrashPartialFsync}
	for _, mode := range modes {
		mode := mode
		for op := 1; op <= totalOps; op++ {
			op := op
			t.Run(fmt.Sprintf("%s/op%03d", mode, op), func(t *testing.T) {
				fs := faultfs.NewMemFS()
				fs.SetPlan(&faultfs.CrashPlan{Op: op, Mode: mode, Seed: int64(op)*31 + int64(mode)})
				acked := 0
				st, err := OpenStore("store", StoreOptions{FS: fs, SnapshotEvery: chaosSnapEvery, Now: chaosNow})
				if err == nil {
					for i := 0; i < chaosCommits; i++ {
						if _, cerr := st.Commit("admin", clerkDiff(i)); cerr != nil {
							break
						}
						acked = i + 1
					}
				}
				if !fs.Crashed() {
					t.Fatalf("plan %v at op %d never engaged", mode, op)
				}

				// Reboot and reopen: recovery must succeed at every point.
				fs.Recover()
				st2, err := OpenStore("store", StoreOptions{FS: fs, SnapshotEvery: chaosSnapEvery, Now: chaosNow})
				if err != nil {
					t.Fatalf("recovery after %v at op %d failed: %v (files: %v)", mode, op, err, fs.Files())
				}
				seq := int(st2.Seq())
				// Exactly the acknowledged history, or acknowledged history
				// plus the one in-flight commit whose WAL frame was durable.
				if seq != acked && seq != acked+1 {
					t.Fatalf("recovered to %d commits, acknowledged %d", seq, acked)
				}
				if !st2.Policy().Equal(expected[seq]) {
					t.Fatalf("recovered policy is not the seq-%d replay:\n%s", seq, st2.Policy())
				}
				// The read path serves the recovered state, nothing staler
				// and nothing newer.
				for i := 0; i < chaosCommits; i++ {
					u := rbac.User(fmt.Sprintf("u%03d", i))
					want := expected[seq].UserHolds(u, "SalariesDB.Component", "Access")
					if st2.UserHolds(u, "SalariesDB.Component", "Access") != want {
						t.Fatalf("UserHolds decision for %s diverges from recovered policy", u)
					}
				}
				// The audit chain verifies end to end and anchors the head.
				auditData, _ := fs.ReadFile("store/audit.log")
				chain, aerr := VerifyAuditChain(auditData)
				if aerr != nil {
					t.Fatalf("audit chain after recovery: %v", aerr)
				}
				if len(chain) != seq {
					t.Fatalf("audit chain has %d records, store at seq %d", len(chain), seq)
				}
				if seq > 0 && chain[seq-1].Hash != st2.AuditHead() {
					t.Fatal("audit head does not anchor the recovered store")
				}
				// And the recovered store keeps working.
				if _, err := st2.Commit("admin", rbac.Diff{AddedUserRole: []rbac.UserRoleEntry{
					{User: "post-crash", Domain: "DOMA", Role: "Clerk"}}}); err != nil {
					t.Fatalf("commit after recovery: %v", err)
				}
			})
		}
	}
}

// TestENOSPCChaosSuite arms the sticky out-of-space fault at every
// operation of the workload. ENOSPC is not a crash: the store must
// refuse the affected commits atomically, keep serving reads, and
// accept the refused updates once space returns.
func TestENOSPCChaosSuite(t *testing.T) {
	totalOps := chaosOps(t)
	expected := chaosExpected(t)
	for op := 1; op <= totalOps; op++ {
		op := op
		t.Run(fmt.Sprintf("op%03d", op), func(t *testing.T) {
			fs := faultfs.NewMemFS()
			fs.SetPlan(&faultfs.CrashPlan{Op: op, Mode: faultfs.ENOSPC})
			st, err := OpenStore("store", StoreOptions{FS: fs, SnapshotEvery: chaosSnapEvery, Now: chaosNow})
			if err != nil {
				// The disk filled while creating the store: lift and retry,
				// as an operator would.
				fs.SetDiskLimit(-1)
				st, err = OpenStore("store", StoreOptions{FS: fs, SnapshotEvery: chaosSnapEvery, Now: chaosNow})
				if err != nil {
					t.Fatalf("open after space recovered: %v", err)
				}
			}
			var refused []int
			for i := 0; i < chaosCommits; i++ {
				if _, cerr := st.Commit("admin", clerkDiff(i)); cerr != nil {
					if errors.Is(cerr, ErrStoreBroken) {
						t.Fatalf("ENOSPC bricked the store: %v", cerr)
					}
					refused = append(refused, i)
				}
			}
			fs.SetDiskLimit(-1)
			for _, i := range refused {
				if _, cerr := st.Commit("admin", clerkDiff(i)); cerr != nil {
					t.Fatalf("re-commit %d after space recovered: %v", i, cerr)
				}
			}
			if !st.Policy().Equal(expected[chaosCommits]) {
				t.Fatal("catalogue diverged across the ENOSPC episode")
			}
			st.Close()
			st2, err := OpenStore("store", StoreOptions{FS: fs, Now: chaosNow})
			if err != nil {
				t.Fatalf("reopen after ENOSPC episode: %v", err)
			}
			if !st2.Policy().Equal(expected[chaosCommits]) {
				t.Fatal("recovered catalogue diverged across the ENOSPC episode")
			}
			auditData, _ := fs.ReadFile("store/audit.log")
			if chain, aerr := VerifyAuditChain(auditData); aerr != nil || len(chain) != chaosCommits {
				t.Fatalf("audit chain = %d records, %v", len(chain), aerr)
			}
		})
	}
}
