// Package faultfs is the disk-side sibling of internal/faultnet: a
// minimal filesystem abstraction plus a deterministic, scriptable
// in-memory implementation that injects the storage faults real disks
// exhibit — torn writes, partial fsyncs, ENOSPC and whole-process
// crashes at a chosen operation — so crash-recovery suites can prove a
// durable store recovers from every reachable crash point.
//
// The model distinguishes what a file system call *returned* from what
// is *durable*. Every mutating call (write, truncate, rename, create,
// remove, sync) advances a deterministic operation counter; a CrashPlan
// names the operation at which the fault engages:
//
//   - CrashTornWrite: the scheduled write persists only a prefix of its
//     buffer (length drawn from the plan's seeded RNG, and the last
//     surviving byte may be damaged), then the "process" dies — every
//     later call fails with ErrCrashed;
//   - CrashPartialFsync: the scheduled sync fails having made durable
//     only a prefix of the current data (at least the part it shares
//     with the old durable image), or nothing new — then the process
//     dies;
//   - CrashHard: the scheduled operation never happens — the process
//     dies first, and all unsynced data is lost;
//   - ENOSPC: not a crash — the scheduled write (and every write after
//     it) fails with ErrNoSpace until SetDiskLimit lifts the limit; the
//     store must refuse the commit and keep serving.
//
// After a crash, Recover() plays the role of the machine rebooting: all
// open handles are dead, and each file's content reverts to what was
// durable (synced bytes, plus whatever torn fragment the plan let slip
// onto the platter). Reopening the store against the recovered
// filesystem is exactly a process restart.
package faultfs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Errors injected by the deterministic filesystem.
var (
	// ErrCrashed is returned by every operation after an injected crash
	// and before Recover is called.
	ErrCrashed = errors.New("faultfs: crashed")
	// ErrNoSpace is the injected ENOSPC.
	ErrNoSpace = errors.New("faultfs: no space left on device")
)

// File is the slice of *os.File a write-ahead log needs: sequential
// reads, appends, truncation and durability barriers.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync flushes the file to durable storage (fsync).
	Sync() error
	// Truncate cuts the file to size bytes.
	Truncate(size int64) error
	// Name returns the path the file was opened under.
	Name() string
}

// FS is the slice of the os package a durable store needs. Rename is
// atomic (it is on POSIX within one directory, which is how the store
// uses it).
type FS interface {
	// OpenFile opens name with os-style flags (os.O_RDONLY,
	// os.O_CREATE|os.O_WRONLY|os.O_APPEND, ...).
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// ReadFile returns the whole content of name.
	ReadFile(name string) ([]byte, error)
	// WriteFile writes data to name (no durability implied; callers
	// that need durability open + write + sync explicitly).
	WriteFile(name string, data []byte, perm os.FileMode) error
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes name.
	Remove(name string) error
	// Stat reports whether name exists and its size.
	Stat(name string) (fs.FileInfo, error)
	// MkdirAll creates dir and parents.
	MkdirAll(dir string, perm os.FileMode) error
}

// WriteFileAtomic replaces name with data so that a crash at any point
// leaves either the old content or the new, never a mix: data goes to
// name+".tmp", which is fsynced, closed and renamed over name. On
// failure the temporary file is removed. A crash can still strand it;
// a writer that reopens the directory may delete it, since it was never
// renamed into place.
func WriteFileAtomic(fsys FS, name string, data []byte, perm os.FileMode) error {
	tmp := name + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, name)
	}
	if err != nil {
		_ = fsys.Remove(tmp)
	}
	return err
}

// ---- Real disk ----

// OS is the pass-through FS backed by the real operating system.
type OS struct{}

type osFile struct{ *os.File }

// OpenFile implements FS.
func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// ReadFile implements FS.
func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// WriteFile implements FS.
func (OS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}

// Rename implements FS.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OS) Remove(name string) error { return os.Remove(name) }

// Stat implements FS.
func (OS) Stat(name string) (fs.FileInfo, error) { return os.Stat(name) }

// MkdirAll implements FS.
func (OS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }

// ---- Deterministic in-memory disk with scripted faults ----

// Mode is the class of fault a CrashPlan injects.
type Mode int

// The fault modes.
const (
	// CrashHard kills the process before the scheduled operation runs.
	CrashHard Mode = iota
	// CrashTornWrite lets a prefix of the scheduled write reach the
	// platter (last byte possibly damaged), then kills the process.
	CrashTornWrite
	// CrashPartialFsync leaves the durable image either as it was or
	// as a prefix of the current data, then kills the process.
	CrashPartialFsync
	// ENOSPC fails the scheduled write and all later writes with
	// ErrNoSpace without crashing.
	ENOSPC
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case CrashHard:
		return "crash-hard"
	case CrashTornWrite:
		return "torn-write"
	case CrashPartialFsync:
		return "partial-fsync"
	case ENOSPC:
		return "enospc"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// CrashPlan schedules one fault. Op counts mutating operations (write,
// sync, truncate, rename, create, remove) from 1; the fault engages
// when the counter reaches Op. Seed drives the deterministic RNG that
// picks torn-write and partial-fsync cut points.
type CrashPlan struct {
	Op   int
	Mode Mode
	Seed int64
}

// memFile is one file's state: data is what reads observe, durable is
// what survives a crash.
type memFile struct {
	data    []byte
	durable []byte
}

// MemFS is a deterministic in-memory FS with scripted fault injection.
// It is safe for concurrent use. The zero value is not ready; call
// NewMemFS.
type MemFS struct {
	mu      sync.Mutex
	files   map[string]*memFile
	dirs    map[string]bool
	plan    *CrashPlan
	rng     uint64 // xorshift state, seeded from plan
	ops     int
	crashed bool
	noSpace bool
	limit   int // byte budget; <0 = unlimited
	used    int
	handles map[*memHandle]bool
}

// NewMemFS returns an empty in-memory filesystem with no fault plan
// and no disk limit.
func NewMemFS() *MemFS {
	return &MemFS{
		files:   make(map[string]*memFile),
		dirs:    map[string]bool{".": true},
		limit:   -1,
		handles: make(map[*memHandle]bool),
	}
}

// SetPlan arms a crash plan. Passing nil disarms. The op counter is
// NOT reset: callers typically count a clean run first (Ops), then arm
// a plan on a fresh MemFS.
func (m *MemFS) SetPlan(p *CrashPlan) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.plan = p
	if p != nil {
		m.rng = uint64(p.Seed)*2862933555777941757 + 3037000493
	}
}

// SetDiskLimit caps the total bytes the filesystem accepts; writes
// beyond it fail with ErrNoSpace. A negative limit removes the cap and
// clears a standing ENOSPC condition.
func (m *MemFS) SetDiskLimit(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.limit = n
	if n < 0 {
		m.noSpace = false
	}
}

// Ops returns the number of mutating operations performed so far — the
// length of the crash-point schedule a chaos suite iterates over.
func (m *MemFS) Ops() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ops
}

// Crashed reports whether an injected crash has engaged.
func (m *MemFS) Crashed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.crashed
}

// Recover reboots the machine: every file reverts to its durable
// content, all handles die, and the crash flag clears. The armed plan
// is disarmed (it already fired). No-op counterpart for a non-crashed
// filesystem is allowed and only invalidates handles.
func (m *MemFS) Recover() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, f := range m.files {
		f.data = append([]byte(nil), f.durable...)
	}
	m.recomputeUsedLocked()
	for h := range m.handles {
		h.dead = true
	}
	m.handles = make(map[*memHandle]bool)
	m.crashed = false
	m.plan = nil
}

// DamageFile overwrites one byte at off in name's current and durable
// content — a tamper probe for audit-chain tests. Does not count as an
// operation.
func (m *MemFS) DamageFile(name string, off int, b byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[m.clean(name)]
	if !ok || off < 0 || off >= len(f.data) {
		return fmt.Errorf("faultfs: damage %s@%d: out of range", name, off)
	}
	f.data[off] = b
	if off < len(f.durable) {
		f.durable[off] = b
	}
	return nil
}

func (m *MemFS) clean(name string) string {
	return filepath.Clean(strings.TrimPrefix(name, "./"))
}

func (m *MemFS) recomputeUsedLocked() {
	m.used = 0
	for _, f := range m.files {
		m.used += len(f.data)
	}
}

// next advances the RNG (xorshift64*).
func (m *MemFS) next() uint64 {
	m.rng ^= m.rng >> 12
	m.rng ^= m.rng << 25
	m.rng ^= m.rng >> 27
	return m.rng * 2685821657736338717
}

// step advances the op counter and reports whether the armed plan
// engages on this operation. Callers hold m.mu.
func (m *MemFS) step() (engaged bool) {
	m.ops++
	return m.plan != nil && m.ops == m.plan.Op
}

// checkAlive returns the standing failure for a dead filesystem.
// Callers hold m.mu.
func (m *MemFS) checkAlive() error {
	if m.crashed {
		return ErrCrashed
	}
	return nil
}

// memHandle is an open file handle.
type memHandle struct {
	fs     *MemFS
	name   string
	f      *memFile
	rdOff  int
	append bool
	wrOnly bool
	rdOnly bool
	dead   bool
}

// OpenFile implements FS.
func (m *MemFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkAlive(); err != nil {
		return nil, err
	}
	name = m.clean(name)
	f, ok := m.files[name]
	if !ok {
		if flag&os.O_CREATE == 0 {
			return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
		}
		if m.step() {
			// Creation is a mutating op; a hard crash here loses it.
			return nil, m.engage(nil, nil)
		}
		f = &memFile{}
		m.files[name] = f
	} else if flag&os.O_TRUNC != 0 {
		if m.step() {
			return nil, m.engage(nil, nil)
		}
		m.used -= len(f.data)
		f.data = nil
	}
	h := &memHandle{
		fs:     m,
		name:   name,
		f:      f,
		append: flag&os.O_APPEND != 0,
		wrOnly: flag&(os.O_WRONLY) != 0,
		rdOnly: flag&(os.O_WRONLY|os.O_RDWR) == 0,
	}
	m.handles[h] = true
	return h, nil
}

// engage fires the armed plan for a mutating operation. write is the
// buffer being written (nil for non-write ops), dst the file written
// to. It returns the error the interrupted call must surface. Callers
// hold m.mu.
func (m *MemFS) engage(write []byte, dst *memFile) error {
	switch m.plan.Mode {
	case ENOSPC:
		m.noSpace = true
		return ErrNoSpace
	case CrashTornWrite:
		if write != nil && dst != nil && len(write) > 0 {
			keep := int(m.next() % uint64(len(write))) // 0..len-1: strictly torn
			frag := append([]byte(nil), write[:keep]...)
			if keep > 0 && m.next()%2 == 0 {
				frag[keep-1] ^= 0xA5 // bit rot on the torn edge
			}
			dst.data = append(dst.data, frag...)
			// The torn fragment is on the platter: it survives reboot.
			dst.durable = append([]byte(nil), dst.data...)
			m.recomputeUsedLocked()
		}
		m.crashed = true
		return ErrCrashed
	case CrashPartialFsync:
		// The durable image becomes the old one or a prefix of the
		// current data. When a truncate has cut into the durable bytes,
		// the two share only a prefix p, and the old image stays one
		// candidate beside every data[:p..len(data)].
		if dst != nil {
			p := 0
			for p < len(dst.durable) && p < len(dst.data) && dst.durable[p] == dst.data[p] {
				p++
			}
			if p == len(dst.durable) && len(dst.data) > p {
				keep := int(m.next() % uint64(len(dst.data)-p+1))
				dst.durable = append(dst.durable, dst.data[p:p+keep]...)
			} else if p < len(dst.durable) {
				if keep := int(m.next() % uint64(len(dst.data)-p+2)); keep <= len(dst.data)-p {
					dst.durable = append([]byte(nil), dst.data[:p+keep]...)
				}
			}
		}
		m.crashed = true
		return ErrCrashed
	default: // CrashHard
		m.crashed = true
		return ErrCrashed
	}
}

func (h *memHandle) Read(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.dead || h.fs.crashed {
		return 0, ErrCrashed
	}
	if h.wrOnly {
		return 0, &os.PathError{Op: "read", Path: h.name, Err: os.ErrInvalid}
	}
	if h.rdOff >= len(h.f.data) {
		return 0, io.EOF
	}
	n := copy(p, h.f.data[h.rdOff:])
	h.rdOff += n
	return n, nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.dead || h.fs.crashed {
		return 0, ErrCrashed
	}
	if h.rdOnly {
		return 0, &os.PathError{Op: "write", Path: h.name, Err: os.ErrInvalid}
	}
	if h.fs.noSpace {
		return 0, ErrNoSpace
	}
	if h.fs.step() {
		return 0, h.fs.engage(p, h.f)
	}
	if h.fs.limit >= 0 && h.fs.used+len(p) > h.fs.limit {
		h.fs.noSpace = true
		return 0, ErrNoSpace
	}
	h.f.data = append(h.f.data, p...)
	h.fs.used += len(p)
	return len(p), nil
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.dead || h.fs.crashed {
		return ErrCrashed
	}
	if h.fs.step() {
		return h.fs.engage(nil, h.f)
	}
	h.f.durable = append([]byte(nil), h.f.data...)
	return nil
}

func (h *memHandle) Truncate(size int64) error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.dead || h.fs.crashed {
		return ErrCrashed
	}
	if h.fs.step() {
		return h.fs.engage(nil, h.f)
	}
	if int(size) < len(h.f.data) {
		h.f.data = h.f.data[:size]
		h.fs.recomputeUsedLocked()
	}
	if h.rdOff > int(size) {
		h.rdOff = int(size)
	}
	return nil
}

func (h *memHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	delete(h.fs.handles, h)
	h.dead = true
	return nil
}

func (h *memHandle) Name() string { return h.name }

// ReadFile implements FS.
func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkAlive(); err != nil {
		return nil, err
	}
	f, ok := m.files[m.clean(name)]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	}
	return append([]byte(nil), f.data...), nil
}

// WriteFile implements FS.
func (m *MemFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkAlive(); err != nil {
		return err
	}
	if m.noSpace {
		return ErrNoSpace
	}
	name = m.clean(name)
	f, ok := m.files[name]
	if !ok {
		f = &memFile{}
	}
	if m.step() {
		return m.engage(data, f)
	}
	if m.limit >= 0 && m.used-len(f.data)+len(data) > m.limit {
		m.noSpace = true
		return ErrNoSpace
	}
	m.files[name] = f
	f.data = append([]byte(nil), data...)
	m.recomputeUsedLocked()
	return nil
}

// Rename implements FS. The rename is atomic and — like a journaled
// metadata operation — durable once it returns.
func (m *MemFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkAlive(); err != nil {
		return err
	}
	oldpath, newpath = m.clean(oldpath), m.clean(newpath)
	f, ok := m.files[oldpath]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldpath, Err: os.ErrNotExist}
	}
	if m.step() {
		return m.engage(nil, f)
	}
	// Metadata journal: the renamed file's current content is what the
	// new name durably holds.
	f.durable = append([]byte(nil), f.data...)
	delete(m.files, oldpath)
	m.files[newpath] = f
	m.recomputeUsedLocked()
	return nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkAlive(); err != nil {
		return err
	}
	name = m.clean(name)
	f, ok := m.files[name]
	if !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	if m.step() {
		return m.engage(nil, f)
	}
	delete(m.files, name)
	m.recomputeUsedLocked()
	return nil
}

// statInfo is the fs.FileInfo of a MemFS entry. MemFS keeps no clock
// (determinism), so ModTime is the zero time.
type statInfo struct {
	name string
	size int64
	dir  bool
}

func (i statInfo) Name() string { return filepath.Base(i.name) }
func (i statInfo) Size() int64  { return i.size }
func (i statInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o700
	}
	return 0o600
}
func (i statInfo) ModTime() time.Time { return time.Time{} }
func (i statInfo) IsDir() bool        { return i.dir }
func (i statInfo) Sys() any           { return nil }

// Stat implements FS.
func (m *MemFS) Stat(name string) (fs.FileInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkAlive(); err != nil {
		return nil, err
	}
	name = m.clean(name)
	if f, ok := m.files[name]; ok {
		return statInfo{name: name, size: int64(len(f.data))}, nil
	}
	if m.dirs[name] {
		return statInfo{name: name, dir: true}, nil
	}
	return nil, &os.PathError{Op: "stat", Path: name, Err: os.ErrNotExist}
}

// MkdirAll implements FS. MemFS paths are flat keys; directories only
// exist so Stat can confirm them.
func (m *MemFS) MkdirAll(dir string, perm os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkAlive(); err != nil {
		return err
	}
	m.dirs[m.clean(dir)] = true
	return nil
}

// Files returns the sorted file names currently present — a debugging
// aid for chaos-test failure messages.
func (m *MemFS) Files() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.files))
	for n := range m.files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

var (
	_ FS = OS{}
	_ FS = (*MemFS)(nil)
)
