package main

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"securewebcom/internal/faultfs"
)

// ramFS is a faultfs.FS held in process memory with the semantics of
// tmpfs: a write lands in RAM, Sync is a no-op and Rename moves the
// entry without copying it. faultfs.MemFS is not used because its Sync
// and Rename copy the whole file into a crash shadow, a cost that grows
// with the file and that no real filesystem has; the benchmark never
// simulates a crash, so it needs no shadow.
type ramFS struct {
	mu    sync.Mutex
	files map[string]*ramData
	dirs  map[string]bool
}

type ramData struct{ b []byte }

func newRAMFS() *ramFS {
	return &ramFS{files: map[string]*ramData{}, dirs: map[string]bool{".": true}}
}

func notExist(op, name string) error {
	return &os.PathError{Op: op, Path: name, Err: os.ErrNotExist}
}

// ramFile is an open file. Every write appends: the store only ever
// appends to a file or writes a truncated one from its start.
type ramFile struct {
	fs   *ramFS
	name string
	d    *ramData
	off  int
}

// OpenFile implements faultfs.FS.
func (r *ramFS) OpenFile(name string, flag int, _ os.FileMode) (faultfs.File, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	name = filepath.Clean(name)
	d, ok := r.files[name]
	switch {
	case !ok && flag&os.O_CREATE == 0:
		return nil, notExist("open", name)
	case !ok:
		d = &ramData{}
		r.files[name] = d
	case flag&os.O_TRUNC != 0:
		d.b = nil
	}
	return &ramFile{fs: r, name: name, d: d}, nil
}

func (f *ramFile) Read(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.off >= len(f.d.b) {
		return 0, io.EOF
	}
	n := copy(p, f.d.b[f.off:])
	f.off += n
	return n, nil
}

func (f *ramFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.d.b = append(f.d.b, p...)
	return len(p), nil
}

func (f *ramFile) Sync() error { return nil }

func (f *ramFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if int(size) <= len(f.d.b) {
		f.d.b = f.d.b[:size]
	} else {
		f.d.b = append(f.d.b, make([]byte, int(size)-len(f.d.b))...)
	}
	return nil
}

func (f *ramFile) Close() error { return nil }
func (f *ramFile) Name() string { return f.name }

// ReadFile implements faultfs.FS.
func (r *ramFS) ReadFile(name string) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.files[filepath.Clean(name)]
	if !ok {
		return nil, notExist("open", name)
	}
	return append([]byte(nil), d.b...), nil
}

// WriteFile implements faultfs.FS.
func (r *ramFS) WriteFile(name string, data []byte, _ os.FileMode) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.files[filepath.Clean(name)] = &ramData{b: append([]byte(nil), data...)}
	return nil
}

// Rename implements faultfs.FS.
func (r *ramFS) Rename(oldpath, newpath string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	d, ok := r.files[oldpath]
	if !ok {
		return notExist("rename", oldpath)
	}
	delete(r.files, oldpath)
	r.files[newpath] = d
	return nil
}

// Remove implements faultfs.FS.
func (r *ramFS) Remove(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	name = filepath.Clean(name)
	if _, ok := r.files[name]; !ok {
		return notExist("remove", name)
	}
	delete(r.files, name)
	return nil
}

// Stat implements faultfs.FS.
func (r *ramFS) Stat(name string) (fs.FileInfo, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	name = filepath.Clean(name)
	if d, ok := r.files[name]; ok {
		return ramInfo{name: name, size: int64(len(d.b))}, nil
	}
	if r.dirs[name] {
		return ramInfo{name: name, dir: true}, nil
	}
	return nil, notExist("stat", name)
}

// MkdirAll implements faultfs.FS. Paths are flat keys; a directory only
// exists so that Stat can confirm it.
func (r *ramFS) MkdirAll(dir string, _ os.FileMode) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dirs[filepath.Clean(dir)] = true
	return nil
}

type ramInfo struct {
	name string
	size int64
	dir  bool
}

func (i ramInfo) Name() string { return filepath.Base(i.name) }
func (i ramInfo) Size() int64  { return i.size }
func (i ramInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o700
	}
	return 0o600
}
func (i ramInfo) ModTime() time.Time { return time.Time{} }
func (i ramInfo) IsDir() bool        { return i.dir }
func (i ramInfo) Sys() any           { return nil }

var _ faultfs.FS = (*ramFS)(nil)
