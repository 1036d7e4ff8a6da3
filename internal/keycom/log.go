package keycom

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"securewebcom/internal/faultfs"
	"securewebcom/internal/telemetry"
)

// The durable log: the one crash-safe persistence mechanism under
// KeyCOM. A log owns two files in its directory:
//
//	<snapshot> — the instance's whole state as of some acknowledged
//	             sequence number, replaced with faultfs.WriteFileAtomic;
//	<wal>      — one checksummed frame (wal.go) per record appended
//	             since that snapshot, fsynced before the append is
//	             acknowledged.
//
// The log owns sequencing, the fsync discipline, rewind on failure,
// the broken latch, the snapshot cadence and recovery. An instance
// owns what its records and snapshot mean: Store (the catalogue, with
// its audit chain beside the log) and KeyVault (registered key pairs)
// embed a log and add only that. The invariant both inherit: recovered
// state is exactly the acknowledged history, plus at most the one
// in-flight record whose frame was durable when the process died.

// DefaultSnapshotEvery is the commit count between automatic snapshots.
const DefaultSnapshotEvery = 64

// ErrStoreBroken wraps the first unrecoverable log error; every later
// commit is refused until the process restarts and recovery re-anchors.
var ErrStoreBroken = errors.New("keycom: store broken, restart required")

// errLogUnusable marks a failed append that could not be rewound: the
// file may end in a partial record, so the log latches broken.
var errLogUnusable = errors.New("keycom: append could not be rewound")

// logConfig names one instance's files and counters.
type logConfig struct {
	snapName, walName string
	// metric prefixes <metric>.snapshots, .snapshot.errors, .replayed.
	metric string
	// walMetric prefixes <walMetric>.appends, .fsyncs, .fsync.latency.
	walMetric string
	// tornMetric counts the torn WAL bytes recovery cut.
	tornMetric string
}

// appendFile is an append-only file holding size bytes of acknowledged
// content. The WAL and the audit chain are both appendFiles.
type appendFile struct {
	f    faultfs.File
	size int64
}

// openAppend opens (creating if absent) path for appending and cuts it
// to size, the verified length recovery established, fsyncing the cut
// so a torn tail cannot reappear after the next crash.
func openAppend(fsys faultfs.FS, path string, size int64) (*appendFile, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return nil, fmt.Errorf("keycom: open %s: %w", filepath.Base(path), err)
	}
	a := &appendFile{f: f}
	if err := a.rewind(size); err != nil {
		f.Close()
		return nil, fmt.Errorf("keycom: truncate torn %s tail: %w", filepath.Base(path), err)
	}
	return a, nil
}

// append writes and fsyncs p. On failure it cuts the file back to the
// last acknowledged byte so a partial write cannot poison later
// appends; if even that cut fails the error wraps errLogUnusable.
func (a *appendFile) append(p []byte) error {
	_, err := a.f.Write(p)
	if err == nil {
		err = a.f.Sync()
	}
	if err != nil {
		if terr := a.f.Truncate(a.size); terr != nil {
			return fmt.Errorf("%w: append failed (%w) and rewind failed (%v)", errLogUnusable, err, terr)
		}
		return err
	}
	a.size += int64(len(p))
	return nil
}

// rewind truncates the file to n bytes and fsyncs the cut. size is
// updated as soon as the truncate lands, before the fsync: a failed
// fsync leaves the old bytes durable (they can resurface after a
// crash) but the open file — what appends extend — is already cut.
func (a *appendFile) rewind(n int64) error {
	if err := a.f.Truncate(n); err != nil {
		return err
	}
	a.size = n
	return a.f.Sync()
}

// close closes the file. Every acknowledged append is already fsynced,
// so close has nothing left to flush.
func (a *appendFile) close() error {
	if a == nil || a.f == nil {
		return nil
	}
	err := a.f.Close()
	a.f = nil
	return err
}

// durableLog is one snapshot + WAL pair. mu guards the log and the
// embedding instance's in-memory state: the build, apply and state
// callbacks all run under it, and accessors that only read take it
// shared.
type durableLog struct {
	fs        faultfs.FS
	tel       *telemetry.Registry
	cfg       logConfig
	dir       string
	snapEvery int
	good      int64                // WAL length recovery verified
	state     func(seq uint64) any // the instance's snapshot payload

	mu        sync.RWMutex
	wal       *appendFile
	seq       uint64
	sinceSnap int
	broken    error
	rec       RecoveryInfo
}

// logImage is a log's durable content as loadLog found it.
type logImage[S, R any] struct {
	snap S      // the snapshot; the zero value if there is none
	recs []R    // records past the snapshot, contiguous
	good int64  // byte length of the WAL's checksum-valid prefix
	torn int64  // bytes past good: a torn final append
	base uint64 // sequence number the snapshot covers (0 if none)
}

// loadLog reads a log's snapshot and WAL without changing either: the
// read-only half of recovery, which VerifyStoreAudit shares.
func loadLog[S, R sequenced](fsys faultfs.FS, snapPath, walPath string) (img logImage[S, R], err error) {
	data, err := fsys.ReadFile(snapPath)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &img.snap); err != nil {
			return img, fmt.Errorf("keycom: %s unreadable: %w", filepath.Base(snapPath), err)
		}
		img.base = img.snap.sequence()
	case !errors.Is(err, os.ErrNotExist):
		return img, fmt.Errorf("keycom: read %s: %w", filepath.Base(snapPath), err)
	}
	walData, err := fsys.ReadFile(walPath)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return img, fmt.Errorf("keycom: read %s: %w", filepath.Base(walPath), err)
	}
	recs, good, err := parseWAL[R](walData, img.base)
	if err != nil {
		return img, err
	}
	img.recs, img.good, img.torn = recs, int64(good), int64(len(walData)-good)
	return img, nil
}

// openLog prepares dir for a log (nil fsys means the real disk; a zero
// snapEvery means DefaultSnapshotEvery, a negative one disables
// automatic snapshots) and loads what it holds. The log does not append
// yet: the instance first rebuilds its state from the image, then calls
// start.
func openLog[S, R sequenced](fsys faultfs.FS, dir string, cfg logConfig, tel *telemetry.Registry, snapEvery int) (*durableLog, logImage[S, R], error) {
	var img logImage[S, R]
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	if snapEvery == 0 {
		snapEvery = DefaultSnapshotEvery
	}
	if err := fsys.MkdirAll(dir, 0o700); err != nil {
		return nil, img, fmt.Errorf("keycom: log dir: %w", err)
	}
	l := &durableLog{fs: fsys, tel: tel, cfg: cfg, dir: dir, snapEvery: snapEvery}
	// A crash mid-snapshot can strand the temporary file; it was never
	// renamed into place, so it is dead weight.
	tmp := l.path(cfg.snapName) + ".tmp"
	if _, err := fsys.Stat(tmp); err == nil {
		_ = fsys.Remove(tmp)
	}
	img, err := loadLog[S, R](fsys, l.path(cfg.snapName), l.path(cfg.walName))
	if err != nil {
		return nil, img, err
	}
	l.seq = img.base
	if n := len(img.recs); n > 0 {
		l.seq = img.recs[n-1].sequence()
	}
	l.good = img.good
	l.rec = RecoveryInfo{SnapshotSeq: img.base, Replayed: len(img.recs), TornWALBytes: img.torn}
	return l, img, nil
}

func (l *durableLog) path(name string) string { return filepath.Join(l.dir, name) }

// start opens the WAL for appending at the length recovery verified,
// cutting the torn tail durably. state renders the instance's snapshot
// payload at a sequence number; it runs under mu.
func (l *durableLog) start(state func(seq uint64) any) error {
	w, err := openAppend(l.fs, l.path(l.cfg.walName), l.good)
	if err != nil {
		return err
	}
	l.wal, l.state = w, state
	l.tel.Counter(l.cfg.metric + ".replayed").Add(int64(l.rec.Replayed))
	l.tel.Counter(l.cfg.tornMetric).Add(l.rec.TornWALBytes)
	return nil
}

// commit durably appends the next record. Under mu it frames the
// record build returns for the next sequence number, appends and
// fsyncs it, then runs apply — the instance's own work for the record.
// If apply fails the frame is rewound, so the log never acknowledges
// what the instance refused. A failure that leaves a file unrewound
// latches the log broken: every later commit is refused until a
// restart lets recovery re-anchor. On success the sequence advances
// and, every snapEvery commits, a snapshot is taken.
func (l *durableLog) commit(build func(seq uint64) any, apply func() error) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return 0, fmt.Errorf("%w: %v", ErrStoreBroken, l.broken)
	}
	seq := l.seq + 1
	frame, err := encodeWALRecord(build(seq))
	if err != nil {
		return 0, err
	}
	pre := l.wal.size
	start := time.Now()
	if err := l.wal.append(frame); err != nil {
		return 0, l.latch(fmt.Errorf("keycom: wal append: %w", err))
	}
	l.tel.Counter(l.cfg.walMetric + ".appends").Inc()
	l.tel.Counter(l.cfg.walMetric + ".fsyncs").Inc()
	l.tel.Histogram(l.cfg.walMetric + ".fsync.latency").ObserveDuration(time.Since(start))
	if err := apply(); err != nil {
		if rerr := l.wal.rewind(pre); rerr != nil {
			l.broken = fmt.Errorf("%v, and wal rewind failed (%v)", err, rerr)
			return 0, fmt.Errorf("%w: %v", ErrStoreBroken, l.broken)
		}
		return 0, l.latch(err)
	}
	l.seq = seq
	l.sinceSnap++
	if l.snapEvery > 0 && l.sinceSnap >= l.snapEvery {
		if err := l.snapshotLocked(); err != nil {
			// The commit is already acknowledged; a failed snapshot only
			// means the WAL keeps growing until one succeeds.
			l.tel.Counter(l.cfg.metric + ".snapshot.errors").Inc()
		}
	}
	return seq, nil
}

// latch marks the log broken when err left a file it could not rewind.
func (l *durableLog) latch(err error) error {
	if errors.Is(err, errLogUnusable) {
		l.broken = err
	}
	return err
}

// Snapshot writes the current state to the snapshot file and truncates
// the WAL. Callers need no lock.
func (l *durableLog) Snapshot() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return fmt.Errorf("%w: %v", ErrStoreBroken, l.broken)
	}
	return l.snapshotLocked()
}

func (l *durableLog) snapshotLocked() error {
	data, err := json.Marshal(l.state(l.seq))
	if err != nil {
		return fmt.Errorf("keycom: encode %s: %w", l.cfg.snapName, err)
	}
	if err := faultfs.WriteFileAtomic(l.fs, l.path(l.cfg.snapName), data, 0o600); err != nil {
		return fmt.Errorf("keycom: write %s: %w", l.cfg.snapName, err)
	}
	l.sinceSnap = 0
	// The snapshot now covers every WAL frame; drop them. Failure here is
	// benign: whether the truncate never happened or happened without a
	// durable fsync, any frames that survive a later crash carry
	// seq <= snapshot seq, which replay skips. The WAL just stays fat
	// until the next snapshot's truncate succeeds.
	if err := l.wal.rewind(0); err != nil {
		return fmt.Errorf("keycom: truncate %s after snapshot: %w", l.cfg.walName, err)
	}
	l.tel.Counter(l.cfg.metric + ".snapshots").Inc()
	return nil
}

// Seq returns the last acknowledged sequence number.
func (l *durableLog) Seq() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.seq
}

// RecoveryInfo reports what opening the log found and repaired.
func (l *durableLog) RecoveryInfo() RecoveryInfo {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.rec
}

// Close closes the WAL. Every acknowledged commit is already durable,
// so Close flushes nothing.
func (l *durableLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.wal.close()
}
