package keycom

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"securewebcom/internal/faultfs"
)

// flakyFS fails every write and sync to the file named bad, and, with
// failTruncate, every truncate of it too: the disk state no crash plan
// reaches, where an append fails and its rewind cannot undo it.
type flakyFS struct {
	faultfs.FS
	bad          string
	failTruncate bool
}

type flakyFile struct {
	faultfs.File
	fs *flakyFS
}

var errFlaky = errors.New("flaky disk")

func (f *flakyFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &flakyFile{File: file, fs: f}, nil
}

func (f *flakyFile) failing() bool { return filepath.Base(f.Name()) == f.fs.bad }

func (f *flakyFile) Write(p []byte) (int, error) {
	if f.failing() {
		return 0, errFlaky
	}
	return f.File.Write(p)
}

func (f *flakyFile) Truncate(n int64) error {
	if f.failing() && f.fs.failTruncate {
		return errFlaky
	}
	return f.File.Truncate(n)
}

// TestLogLatchesBrokenOnlyWhenRewindFails: an append that fails but
// rewinds is refused and the log keeps working; one whose rewind fails
// latches the log broken, for the catalogue's WAL and audit chain and
// the vault's WAL alike.
func TestLogLatchesBrokenOnlyWhenRewindFails(t *testing.T) {
	for _, bad := range []string{walFileName, auditFileName, vaultWALName} {
		for _, failTruncate := range []bool{false, true} {
			fs := &flakyFS{FS: faultfs.NewMemFS()}
			st, err := OpenStore("store", StoreOptions{FS: fs, Now: chaosNow})
			if err != nil {
				t.Fatal(err)
			}
			v, err := OpenKeyVault("vault", KeyVaultOptions{FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			commit := func() error {
				if _, err := st.Commit("admin", clerkDiff(int(st.Seq()))); err != nil {
					return err
				}
				return v.Put(vaultKey(int(v.Seq())))
			}
			if err := commit(); err != nil {
				t.Fatal(err)
			}
			fs.bad, fs.failTruncate = bad, failTruncate
			if err := commit(); !errors.Is(err, errFlaky) {
				t.Fatalf("%s failing: commit err = %v, want the disk error", bad, err)
			}
			fs.bad = ""
			err = commit()
			if failTruncate && !errors.Is(err, ErrStoreBroken) {
				t.Fatalf("%s unrewindable: next commit err = %v, want ErrStoreBroken", bad, err)
			}
			if !failTruncate && err != nil {
				t.Fatalf("%s rewound: next commit err = %v, want success", bad, err)
			}
			st.Close()
			v.Close()
		}
	}
}
