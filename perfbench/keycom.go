package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"securewebcom/internal/faultfs"
	"securewebcom/internal/keycom"
	"securewebcom/internal/keynote"
	"securewebcom/internal/keys"
	"securewebcom/internal/middleware"
	"securewebcom/internal/middleware/complus"
	"securewebcom/internal/ossec"
	"securewebcom/internal/rbac"
)

// The KeyCOM credential plane as authzd -admin builds it: a COM+
// catalogue in NT domain DOMA with one class and role, administered by
// one key. The store lives on a ramFS (ramfs.go): commit timing then
// measures the program, not the disk under the checkout.
const (
	ntDomain = "DOMA"
	comClass = "SalariesDB.Component"
	comRole  = "Clerk"
	storeDir = "store"
)

var catalogueRoles = []string{"Clerk", "Manager", "Auditor", "Operator"}

// adminInputs is the generated administrator side: the key, the seeded
// catalogue and a stream of signed updates that alternately add and
// remove one user–role row, so the catalogue size stays constant.
type adminInputs struct {
	admin     *keys.KeyPair
	catalogue *rbac.Policy
	updates   []*keycom.UpdateRequest
	bodies    [][]byte // updates, JSON-encoded for /v1/credentials
}

func genAdmin(seed int64, sz sizes, commits int) (*adminInputs, error) {
	in := &adminInputs{
		admin:     keys.Deterministic("Kadmin", fmt.Sprintf("perfbench-admin-%d", seed)),
		catalogue: rbac.NewPolicy(),
	}
	rng := rand.New(rand.NewSource(seed ^ 0x6b6579636f6d))
	d := rbac.Domain(ntDomain)
	in.catalogue.AddRolePerm(d, "Clerk", comClass, complus.PermAccess)
	in.catalogue.AddRolePerm(d, "Manager", comClass, complus.PermAccess)
	in.catalogue.AddRolePerm(d, "Manager", comClass, complus.PermLaunch)
	in.catalogue.AddRolePerm(d, "Auditor", comClass, complus.PermAccess)
	in.catalogue.AddRolePerm(d, "Operator", comClass, complus.PermRunAs)
	for i := 0; i < sz.catalogue; i++ {
		role := catalogueRoles[rng.Intn(len(catalogueRoles))]
		in.catalogue.AddUserRole(rbac.User(fmt.Sprintf("emp-%06d", i)), d, rbac.Role(role))
	}
	for k := 0; k < commits; k++ {
		j := k / 2
		row := rbac.UserRoleEntry{
			User:   rbac.User(fmt.Sprintf("churn-%02d", j%64)),
			Domain: d,
			Role:   rbac.Role(catalogueRoles[j%len(catalogueRoles)]),
		}
		req := &keycom.UpdateRequest{Requester: in.admin.PublicID()}
		if k%2 == 0 {
			req.Diff.AddedUserRole = []rbac.UserRoleEntry{row}
		} else {
			req.Diff.RemovedUserRole = []rbac.UserRoleEntry{row}
		}
		if err := req.Sign(in.admin); err != nil {
			return nil, err
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		in.updates = append(in.updates, req)
		in.bodies = append(in.bodies, body)
	}
	return in, nil
}

// countingFS counts the bytes written to the WAL and the fsyncs issued
// through it. The fsyncs reach the ramFS below, where they cost nothing.
type countingFS struct {
	faultfs.FS
	walBytes atomic.Int64
	syncs    atomic.Int64
}

type countingFile struct {
	faultfs.File
	fs  *countingFS
	wal bool
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c, wal: filepath.Base(name) == "wal.log"}, nil
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if f.wal {
		f.fs.walBytes.Add(int64(n))
	}
	return n, err
}

func (f *countingFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

// seedStore writes the catalogue into a fresh RAM store directory
// as one baseline commit plus a snapshot: the state a long-running
// authzd -store leaves behind.
func seedStore(in *adminInputs) (*countingFS, error) {
	fsys := &countingFS{FS: newRAMFS()}
	st, err := keycom.OpenStore(storeDir, keycom.StoreOptions{FS: fsys})
	if err != nil {
		return nil, err
	}
	if _, err := st.Commit("baseline", in.catalogue.DiffFrom(rbac.NewPolicy())); err != nil {
		st.Close()
		return nil, err
	}
	if err := st.Snapshot(); err != nil {
		st.Close()
		return nil, err
	}
	return fsys, st.Close()
}

// buildKeyCOM assembles the credential plane the way authzd's buildKeyCOM
// does; with a nil fsys the catalogue stays in memory (keycomd without
// -store), otherwise the store in storeDir is recovered and attached.
func buildKeyCOM(in *adminInputs, ks *keys.KeyStore, fsys faultfs.FS) (*keycom.Service, *keycom.Store, error) {
	ks.Add(in.admin)
	cat := complus.NewCatalogue("authzd", ossec.NewNTDomain(ntDomain))
	cat.RegisterClass(comClass, map[string]middleware.Handler{})
	cat.DefineRole(comRole)
	if err := cat.Grant(comRole, comClass, complus.PermAccess); err != nil {
		return nil, nil, err
	}
	policy, err := keynote.New("POLICY", fmt.Sprintf("%q", in.admin.PublicID()), `app_domain=="KeyCOM";`)
	if err != nil {
		return nil, nil, err
	}
	chk, err := keynote.NewChecker([]*keynote.Assertion{policy}, keynote.WithResolver(ks))
	if err != nil {
		return nil, nil, err
	}
	svc := keycom.NewService(cat, chk)
	if fsys == nil {
		return svc, nil, nil
	}
	st, err := keycom.OpenStore(storeDir, keycom.StoreOptions{FS: fsys})
	if err != nil {
		return nil, nil, err
	}
	if err := svc.AttachStore(context.Background(), st); err != nil {
		st.Close()
		return nil, nil, err
	}
	return svc, st, nil
}

// applyAll times Service.Apply for each update in turn, in-process: the
// commit cost without a transport. It is decide-zipf's commit probe:
// that workload sends no commits while timed.
func applyAll(svc *keycom.Service, updates []*keycom.UpdateRequest) (lat []int64, failed int64) {
	for _, req := range updates {
		t0 := time.Now()
		if err := svc.Apply(context.Background(), req); err != nil {
			failed++
			continue
		}
		lat = append(lat, int64(time.Since(t0)))
	}
	return lat, failed
}

// replayKeycom times the credential plane's public calls in-process on
// twin stores seeded like the workloads' store and fed the same updates.
func replayKeycom(cfg config) (map[string]float64, error) {
	sz := cfg.size
	in, err := genAdmin(cfg.seed, sz, sz.replayCommit)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}

	// Recovery: OpenStore on the seeded directory.
	fsys, err := seedStore(in)
	if err != nil {
		return nil, err
	}
	var recMS, recMB []float64
	for i := 0; i < 3; i++ {
		a0 := allocatedBytes()
		t0 := time.Now()
		st, err := keycom.OpenStore(storeDir, keycom.StoreOptions{FS: fsys})
		if err != nil {
			return nil, err
		}
		recMS = append(recMS, float64(time.Since(t0))/1e6)
		recMB = append(recMB, float64(allocatedBytes()-a0)/(1<<20))
		if i < 2 {
			if err := st.Close(); err != nil {
				return nil, err
			}
			continue
		}
		// Snapshot at the seeded size.
		var snap []float64
		for j := 0; j < 5; j++ {
			t0 := time.Now()
			if err := st.Snapshot(); err != nil {
				st.Close()
				return nil, err
			}
			snap = append(snap, float64(time.Since(t0))/1e6)
		}
		m["keycom.snapshot_ms"] = median(snap)
		if err := st.Close(); err != nil {
			return nil, err
		}
	}
	m["keycom.recover_ms"] = median(recMS)
	m["keycom.recover_alloc_mb"] = median(recMB)

	// Service.Apply on a service attached to a twin store.
	fsysA, err := seedStore(in)
	if err != nil {
		return nil, err
	}
	svc, stA, err := buildKeyCOM(in, keys.NewKeyStore(), fsysA)
	if err != nil {
		return nil, err
	}
	var apply []float64
	for _, req := range in.updates {
		t0 := time.Now()
		if err := svc.Apply(context.Background(), req); err != nil {
			stA.Close()
			return nil, fmt.Errorf("apply: %w", err)
		}
		apply = append(apply, float64(time.Since(t0))/1e6)
	}
	if err := stA.Close(); err != nil {
		return nil, err
	}
	m["keycom.apply_ms"] = median(apply)

	// Store.Commit alone on a second twin, counting WAL bytes and fsyncs.
	fsysC, err := seedStore(in)
	if err != nil {
		return nil, err
	}
	stC, err := keycom.OpenStore(storeDir, keycom.StoreOptions{FS: fsysC})
	if err != nil {
		return nil, err
	}
	w0, s0 := fsysC.walBytes.Load(), fsysC.syncs.Load()
	var commit []float64
	for _, req := range in.updates {
		t0 := time.Now()
		if _, err := stC.Commit(req.Requester, req.Diff); err != nil {
			stC.Close()
			return nil, fmt.Errorf("commit: %w", err)
		}
		commit = append(commit, float64(time.Since(t0))/1e6)
	}
	n := float64(len(in.updates))
	m["keycom.store_commit_ms"] = median(commit)
	m["keycom.wal_bytes_per_commit"] = float64(fsysC.walBytes.Load()-w0) / n
	m["keycom.fsyncs_per_commit"] = float64(fsysC.syncs.Load()-s0) / n
	return m, stC.Close()
}
