package keycom

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"securewebcom/internal/faultfs"
	"securewebcom/internal/keys"
)

// The on-disk format is a compatibility promise: a store or vault
// written by one build must open under the next. goldenFiles lists
// what a fixed workload leaves on disk; testdata/golden holds those
// files as an earlier build wrote them, and TestDiskFormatGolden
// demands the current build writes the same bytes.
var goldenFiles = []string{
	"store/snapshot.json",
	"store/wal.log",
	"store/audit.log",
	"vault/vault.json",
	"vault/vault.wal",
}

// goldenSnapEvery puts one snapshot inside each instance's workload,
// so the goldens cover a snapshot, a multi-frame WAL past it, and (for
// the store) an audit chain longer than the WAL.
const goldenSnapEvery = 5

// goldenWorkload writes a fixed sequence of catalogue commits and key
// puts on a fresh MemFS, with keys from keys.Deterministic and the
// clock pinned, and returns the filesystem it left behind. One vault
// name is re-registered before the snapshot, so snapshot compaction
// shows in vault.json.
func goldenWorkload(t *testing.T) *faultfs.MemFS {
	t.Helper()
	fs := faultfs.NewMemFS()
	st, err := OpenStore("store", StoreOptions{FS: fs, SnapshotEvery: goldenSnapEvery, Now: chaosNow})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := st.Commit("admin", clerkDiff(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	v, err := OpenKeyVault("vault", KeyVaultOptions{FS: fs, SnapshotEvery: goldenSnapEvery})
	if err != nil {
		t.Fatal(err)
	}
	puts := []*keys.KeyPair{
		keys.Deterministic("k000", "golden"),
		keys.Deterministic("k001", "golden"),
		keys.Deterministic("k002", "golden"),
		keys.Deterministic("k001", "golden-rotated"),
		{Name: "k003", Public: keys.Deterministic("k003", "golden").Public}, // public half only
		keys.Deterministic("k004", "golden"),
		keys.Deterministic("k005", "golden"),
		keys.Deterministic("k006", "golden"),
	}
	for _, kp := range puts {
		if err := v.Put(kp); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestDiskFormatGolden(t *testing.T) {
	fs := goldenWorkload(t)
	want := append([]string(nil), goldenFiles...)
	sort.Strings(want)
	if got := fs.Files(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("workload left files %v, want exactly %v", got, want)
	}
	for _, name := range goldenFiles {
		got, err := fs.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		golden, err := os.ReadFile(filepath.Join("testdata", "golden", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, golden) {
			t.Errorf("%s differs from testdata/golden/%s:\n got  %q\n want %q", name, name, got, golden)
		}
	}
}
