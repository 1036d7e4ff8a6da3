package main

import (
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"securewebcom/internal/keycom"
	"securewebcom/internal/keys"
	"securewebcom/internal/rbac"
)

// TestAuthzdAnnouncesCrashRepair: authzd and keycomd share one KeyCOM
// plane, so a store whose WAL a crash left torn is announced by authzd
// with keycomd's crash-repair line.
func TestAuthzdAnnouncesCrashRepair(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	st, err := keycom.OpenStore(storeDir, keycom.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Commit("admin", rbac.Diff{AddedUserRole: []rbac.UserRoleEntry{
		{User: "alice", Domain: "DOMA", Role: "Clerk"}}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// A torn frame: a header promising more bytes than follow.
	f, err := os.OpenFile(filepath.Join(storeDir, "wal.log"), os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 1, 0, 0xde, 0xad, 0xbe, 0xef, 'x'}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	adminPath := filepath.Join(dir, "admin.pub")
	if err := keys.Deterministic("Kadmin", "authzd-repair").Save(adminPath, false); err != nil {
		t.Fatal(err)
	}
	lw := newLineWriter()
	stop := make(chan os.Signal, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- realMain(config{
			addr:     "127.0.0.1:0",
			issuer:   "idp.test",
			admin:    adminPath,
			domain:   "DOMA",
			class:    "SalariesDB.Component",
			role:     "Clerk",
			storeDir: storeDir,
		}, lw, stop)
	}()
	// The store announces itself before the daemon listens.
	const want = "store: crash repair: 9 torn wal bytes discarded, 0 torn audit bytes discarded, 0 audit lines rebuilt from the wal"
	var repaired bool
	for done := false; !done; {
		select {
		case line := <-lw.lines:
			repaired = repaired || line == want
			done = strings.HasPrefix(line, "authzd listening on ")
		case err := <-errc:
			t.Fatalf("daemon exited early: %v", err)
		case <-time.After(10 * time.Second):
			t.Fatal("daemon never listened")
		}
	}
	if !repaired {
		t.Fatalf("no %q line before the daemon listened", want)
	}
	stop <- syscall.SIGTERM
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain within 10s")
	}
}
