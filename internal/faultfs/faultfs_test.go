package faultfs

import (
	"errors"
	"io"
	"os"
	"strings"
	"testing"
)

func writeAll(t *testing.T, m *MemFS, name string, chunks ...string) File {
	t.Helper()
	f, err := m.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks {
		if _, err := f.Write([]byte(c)); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func TestMemFSDurabilityModel(t *testing.T) {
	m := NewMemFS()
	f := writeAll(t, m, "wal.log", "aaaa")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("bbbb")); err != nil {
		t.Fatal(err)
	}
	// Reads observe the unsynced tail...
	got, err := m.ReadFile("wal.log")
	if err != nil || string(got) != "aaaabbbb" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	// ...but a reboot only keeps the synced prefix.
	m.Recover()
	got, err = m.ReadFile("wal.log")
	if err != nil || string(got) != "aaaa" {
		t.Fatalf("after recover = %q, %v (want synced prefix only)", got, err)
	}
	// The old handle died with the machine.
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("dead handle write err = %v", err)
	}
}

func TestMemFSHardCrashAtOp(t *testing.T) {
	// Count a clean run first.
	clean := NewMemFS()
	f := writeAll(t, clean, "wal.log", "one")
	f.Sync()
	f.Write([]byte("two"))
	f.Sync()
	total := clean.Ops()
	if total < 4 { // create counts too
		t.Fatalf("ops = %d, want >= 4", total)
	}

	// Crash exactly at the second sync: "two" is written but not durable.
	m := NewMemFS()
	m.SetPlan(&CrashPlan{Op: total, Mode: CrashHard})
	g := writeAll(t, m, "wal.log", "one")
	if err := g.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write([]byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := g.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("sync at crash point err = %v", err)
	}
	if !m.Crashed() {
		t.Fatal("not crashed")
	}
	if _, err := m.ReadFile("wal.log"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash read err = %v", err)
	}
	m.Recover()
	got, err := m.ReadFile("wal.log")
	if err != nil || string(got) != "one" {
		t.Fatalf("recovered = %q, %v", got, err)
	}
}

func TestMemFSTornWrite(t *testing.T) {
	foundTorn := false
	for seed := int64(0); seed < 16; seed++ {
		m := NewMemFS()
		f := writeAll(t, m, "wal.log", "head")
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		m.SetPlan(&CrashPlan{Op: m.Ops() + 1, Mode: CrashTornWrite, Seed: seed})
		if _, err := f.Write([]byte("0123456789")); !errors.Is(err, ErrCrashed) {
			t.Fatalf("torn write err = %v", err)
		}
		m.Recover()
		got, err := m.ReadFile("wal.log")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) < len("head") || len(got) >= len("head")+10 {
			t.Fatalf("seed %d: torn file length %d out of range", seed, len(got))
		}
		if string(got[:4]) != "head" {
			t.Fatalf("seed %d: synced prefix damaged: %q", seed, got)
		}
		if len(got) > 4 {
			foundTorn = true
		}
	}
	if !foundTorn {
		t.Fatal("no seed produced a non-empty torn fragment")
	}
}

func TestMemFSPartialFsync(t *testing.T) {
	m := NewMemFS()
	f := writeAll(t, m, "wal.log", "aa")
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("bbbbbbbb")); err != nil {
		t.Fatal(err)
	}
	m.SetPlan(&CrashPlan{Op: m.Ops() + 1, Mode: CrashPartialFsync, Seed: 7})
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("partial fsync err = %v", err)
	}
	m.Recover()
	got, err := m.ReadFile("wal.log")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < 2 || len(got) > 10 || string(got[:2]) != "aa" {
		t.Fatalf("partial-fsync recovered %q", got)
	}
}

// TestMemFSPartialFsyncAfterTruncate: once a truncate has cut into the
// durable bytes and appends regrew the file, a partial fsync must leave
// the old durable image or a prefix of the current data, never old
// bytes followed by a slice from the middle of the new content.
func TestMemFSPartialFsyncAfterTruncate(t *testing.T) {
	const old, regrown = "aaaaaaaa", "aabbbbbbbbbbbbbb"
	outcomes := map[string]bool{}
	for seed := int64(1); seed <= 32; seed++ {
		m := NewMemFS()
		f := writeAll(t, m, "wal.log", old)
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := f.Truncate(2); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte(regrown[2:])); err != nil {
			t.Fatal(err)
		}
		m.SetPlan(&CrashPlan{Op: m.Ops() + 1, Mode: CrashPartialFsync, Seed: seed})
		if err := f.Sync(); !errors.Is(err, ErrCrashed) {
			t.Fatalf("seed %d: partial fsync err = %v", seed, err)
		}
		m.Recover()
		got, err := m.ReadFile("wal.log")
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != old && !strings.HasPrefix(regrown, string(got)) {
			t.Fatalf("seed %d: partial fsync recovered %q, neither %q nor a prefix of %q", seed, got, old, regrown)
		}
		outcomes[string(got)] = true
	}
	if len(outcomes) < 3 {
		t.Fatalf("32 seeds reached only %d durable states: %v", len(outcomes), outcomes)
	}
}

func TestMemFSENOSPC(t *testing.T) {
	m := NewMemFS()
	f := writeAll(t, m, "wal.log", "x")
	m.SetPlan(&CrashPlan{Op: m.Ops() + 1, Mode: ENOSPC})
	if _, err := f.Write([]byte("yy")); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("want ErrNoSpace, got %v", err)
	}
	// ENOSPC is sticky but not fatal: reads still work, later writes
	// keep failing until the limit lifts.
	if got, err := m.ReadFile("wal.log"); err != nil || string(got) != "x" {
		t.Fatalf("read under ENOSPC = %q, %v", got, err)
	}
	if _, err := f.Write([]byte("z")); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("second write err = %v", err)
	}
	m.SetDiskLimit(-1)
	if _, err := f.Write([]byte("z")); err != nil {
		t.Fatalf("write after limit lift: %v", err)
	}
}

func TestMemFSDiskLimit(t *testing.T) {
	m := NewMemFS()
	m.SetDiskLimit(6)
	f := writeAll(t, m, "a", "1234")
	if _, err := f.Write([]byte("5678")); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("over-limit write err = %v", err)
	}
}

func TestMemFSRenameAtomicDurable(t *testing.T) {
	m := NewMemFS()
	f := writeAll(t, m, "snap.tmp", "snapshot-bytes")
	f.Sync()
	f.Close()
	if err := m.Rename("snap.tmp", "snap.json"); err != nil {
		t.Fatal(err)
	}
	m.Recover()
	if _, err := m.ReadFile("snap.tmp"); err == nil {
		t.Fatal("old name survived rename + reboot")
	}
	got, err := m.ReadFile("snap.json")
	if err != nil || string(got) != "snapshot-bytes" {
		t.Fatalf("renamed file = %q, %v", got, err)
	}
}

func TestMemFSDeterministicOpCount(t *testing.T) {
	run := func() int {
		m := NewMemFS()
		f := writeAll(t, m, "wal.log", "a", "b", "c")
		f.Sync()
		m.WriteFile("other", []byte("x"), 0o600)
		m.Rename("other", "other2")
		m.Remove("other2")
		return m.Ops()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("op count not deterministic: %d vs %d", a, b)
	}
}

func TestMemFSTruncateAndRead(t *testing.T) {
	m := NewMemFS()
	f := writeAll(t, m, "wal.log", "0123456789")
	if err := f.Truncate(4); err != nil {
		t.Fatal(err)
	}
	f.Close()
	r, err := m.OpenFile("wal.log", os.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil || string(got) != "0123" {
		t.Fatalf("after truncate = %q, %v", got, err)
	}
	st, err := m.Stat("wal.log")
	if err != nil || st.Size() != 4 {
		t.Fatalf("stat = %v, %v", st, err)
	}
}

func TestOSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var fsys FS = OS{}
	if err := fsys.MkdirAll(dir+"/store", 0o700); err != nil {
		t.Fatal(err)
	}
	f, err := fsys.OpenFile(dir+"/store/wal.log", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := fsys.ReadFile(dir + "/store/wal.log")
	if err != nil || string(got) != "hello" {
		t.Fatalf("os round trip = %q, %v", got, err)
	}
	if err := fsys.Rename(dir+"/store/wal.log", dir+"/store/wal2.log"); err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.Stat(dir + "/store/wal2.log"); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Remove(dir + "/store/wal2.log"); err != nil {
		t.Fatal(err)
	}
}

// TestWriteFileAtomicAllOrNothing replaces a durable file under every
// fault the plan can schedule on every operation of the replace: after
// the reboot the file holds the old content or the new, never a mix,
// and an ENOSPC refusal leaves the old content and no temporary file.
func TestWriteFileAtomicAllOrNothing(t *testing.T) {
	const old, nu = "old content", "new content, longer than the old"
	seed := func(m *MemFS) {
		if err := WriteFileAtomic(m, "snap.json", []byte(old), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	clean := NewMemFS()
	seed(clean)
	before := clean.Ops()
	if err := WriteFileAtomic(clean, "snap.json", []byte(nu), 0o600); err != nil {
		t.Fatal(err)
	}
	if got, _ := clean.ReadFile("snap.json"); string(got) != nu {
		t.Fatalf("replaced content = %q", got)
	}
	if files := clean.Files(); len(files) != 1 {
		t.Fatalf("files after replace = %v, want only snap.json", files)
	}
	for _, mode := range []Mode{CrashHard, CrashTornWrite, CrashPartialFsync, ENOSPC} {
		for op := before + 1; op <= clean.Ops(); op++ {
			m := NewMemFS()
			seed(m)
			m.SetPlan(&CrashPlan{Op: op, Mode: mode, Seed: int64(op)})
			err := WriteFileAtomic(m, "snap.json", []byte(nu), 0o600)
			if err == nil {
				t.Fatalf("%v at op %d: replace reported success", mode, op)
			}
			if mode == ENOSPC {
				if files := m.Files(); len(files) != 1 {
					t.Fatalf("ENOSPC at op %d left %v", op, files)
				}
			}
			m.Recover()
			if got, _ := m.ReadFile("snap.json"); string(got) != old && string(got) != nu {
				t.Fatalf("%v at op %d: snap.json = %q, want old or new", mode, op, got)
			}
		}
	}
}
