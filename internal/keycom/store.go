package keycom

import (
	"fmt"
	"os"
	"strings"
	"time"

	"securewebcom/internal/faultfs"
	"securewebcom/internal/rbac"
	"securewebcom/internal/telemetry"
)

// The durable catalogue store: an instance of the durable log (log.go)
// plus the audit chain. A Store owns one directory:
//
//	snapshot.json — the log's snapshot: the catalogue state and audit
//	                head as of some committed sequence number;
//	wal.log       — the log's WAL: one frame per commit past the
//	                snapshot;
//	audit.log     — the append-only hash chain, one line per commit,
//	                never truncated.
//
// Commit protocol (under the log lock): seal the audit record against
// the current chain head, append-and-fsync the WAL frame (which embeds
// the audit record), append-and-fsync the audit line, then apply the
// diff to the in-memory policy and sharded index. A failure between the
// two appends rolls the WAL back to its pre-commit length so the two
// logs never acknowledge different histories; if even the rollback
// fails the store marks itself broken and refuses further commits —
// the invariant "recovered state is exactly the acknowledged history"
// is worth more than availability of a store whose logs diverged.
//
// Recovery (OpenStore) replays that protocol backwards: load the
// snapshot, replay WAL frames past it (truncating a torn tail, refusing
// a corrupt middle), then repair the audit chain — a crash between the
// two fsyncs can cut off at most the audit line of the final WAL frame,
// and that line is reconstructed from the frame itself. Anything the
// chain is missing beyond that one reconstructible suffix is not a
// crash artifact but tampering, and the store refuses to open.

// Store file names within the store directory.
const (
	walFileName   = "wal.log"
	snapFileName  = "snapshot.json"
	auditFileName = "audit.log"
)

// storeLog is the catalogue's instance of the durable log.
var storeLog = logConfig{
	snapName:   snapFileName,
	walName:    walFileName,
	metric:     "keycom.store",
	walMetric:  "keycom.wal",
	tornMetric: "keycom.wal.torn.bytes",
}

// StoreOptions configures OpenStore. The zero value is usable: real
// disk, default snapshot cadence, wall clock, no telemetry.
type StoreOptions struct {
	// FS is the filesystem the store lives on. Nil means the real disk;
	// chaos tests pass a faultfs.MemFS.
	FS faultfs.FS
	// Tel receives WAL and recovery metrics. Nil disables.
	Tel *telemetry.Registry
	// SnapshotEvery is the number of commits between automatic
	// snapshots; 0 means DefaultSnapshotEvery, negative disables
	// automatic snapshots.
	SnapshotEvery int
	// Now supplies audit-record timestamps. Nil means time.Now().Unix.
	Now func() int64
}

// RecoveryInfo reports what OpenStore found and repaired.
type RecoveryInfo struct {
	// SnapshotSeq is the sequence number the snapshot covered (0 if no
	// snapshot existed).
	SnapshotSeq uint64
	// Replayed counts WAL records replayed past the snapshot.
	Replayed int
	// TornWALBytes is the length of the discarded torn WAL tail.
	TornWALBytes int64
	// TornAuditBytes is the length of the discarded torn audit tail.
	TornAuditBytes int64
	// AuditRepaired counts audit lines reconstructed from WAL frames.
	AuditRepaired int
}

// Store is a durable, crash-safe catalogue: the rbac rows plus a
// sharded read index, backed by the snapshot + WAL + audit-chain files.
// It is safe for concurrent use.
type Store struct {
	*durableLog // its mu guards the fields below
	now         func() int64
	policy      *rbac.Policy
	idx         *shardedIndex
	audit       *auditLog
}

// storeSnapshot is the snapshot.json payload.
type storeSnapshot struct {
	Seq       uint64       `json:"seq"`
	AuditHead string       `json:"audit_head"`
	Policy    *rbac.Policy `json:"policy"`
}

func (s storeSnapshot) sequence() uint64 { return s.Seq }

// OpenStore opens (creating if absent) the store in dir and recovers it
// to the last acknowledged commit.
func OpenStore(dir string, opts StoreOptions) (*Store, error) {
	l, img, err := openLog[storeSnapshot, walRecord](opts.FS, dir, storeLog, opts.Tel, opts.SnapshotEvery)
	if err != nil {
		return nil, err
	}
	s := &Store{durableLog: l, now: opts.Now, policy: rbac.NewPolicy(), idx: newShardedIndex()}
	if s.now == nil {
		s.now = func() int64 { return time.Now().Unix() }
	}
	if err := s.recover(img); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// recover rebuilds the catalogue from the log's snapshot and replayed
// records, cross-checks them against the audit chain, and repairs the
// reconstructible audit suffix.
func (s *Store) recover(img logImage[storeSnapshot, walRecord]) error {
	if img.snap.Policy != nil {
		s.policy = img.snap.Policy
	}
	auditHead := img.snap.AuditHead
	recs := img.recs
	for _, rec := range recs {
		s.policy.Apply(rec.Diff)
		auditHead = rec.Audit.Hash
	}

	// Audit chain: verify, cut a torn tail, reconstruct the suffix a
	// crash between the WAL fsync and the audit fsync cut off.
	auditData, err := s.fs.ReadFile(s.path(auditFileName))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("keycom: read audit log: %w", err)
	}
	chain, verr := VerifyAuditChain(auditData)
	goodAudit := verifiedAuditLen(auditData, len(chain))
	var lastAudit uint64
	if len(chain) > 0 {
		lastAudit = chain[len(chain)-1].Seq
	}
	if lastAudit > s.seq {
		return fmt.Errorf("%w: audit chain reaches seq %d beyond acknowledged history (seq %d)",
			ErrAuditTampered, lastAudit, s.seq)
	}
	// Cross-check the overlap: every replayed WAL frame whose audit line
	// is present must agree with it.
	for _, rec := range recs {
		if rec.Seq > lastAudit {
			break
		}
		if chain[rec.Seq-chain[0].Seq].Hash != rec.Audit.Hash {
			return fmt.Errorf("%w: audit record %d disagrees with write-ahead log", ErrAuditTampered, rec.Seq)
		}
	}
	// A crash between the WAL fsync and the audit fsync can cut off at
	// most the final commit's line. A chain missing more than that lost
	// acknowledged history: tampering or truncation, not a crash.
	if s.seq > lastAudit+1 {
		if verr != nil {
			return fmt.Errorf("%w: %v", ErrAuditTampered, verr)
		}
		return fmt.Errorf("%w: chain ends at seq %d, acknowledged history at seq %d",
			ErrAuditTruncated, lastAudit, s.seq)
	}
	repairBase := img.base
	if len(recs) > 0 {
		repairBase = recs[0].Seq - 1
	}
	if lastAudit < repairBase {
		// The missing line's WAL frame was dropped by a snapshot: not a
		// reachable crash state, and not reconstructible.
		return fmt.Errorf("%w: chain ends at seq %d, snapshot covers seq %d", ErrAuditTruncated, lastAudit, repairBase)
	}
	if verr != nil && s.seq == lastAudit {
		// The broken suffix is not explainable as a torn final line the
		// WAL can rebuild — nothing is missing, yet bytes fail to verify.
		return verr
	}
	head := ""
	if len(chain) > 0 {
		head = chain[len(chain)-1].Hash
	}
	s.rec.TornAuditBytes = int64(len(auditData) - goodAudit)

	// Open both logs at their verified lengths and write the repairs.
	if err := s.start(s.snapshotState); err != nil {
		return err
	}
	if s.audit, err = openAudit(s.fs, s.path(auditFileName), int64(goodAudit), head); err != nil {
		return err
	}
	for _, rec := range recs {
		if rec.Seq <= lastAudit {
			continue
		}
		if rec.Audit.PrevHash != s.audit.head || rec.Audit.chainHash() != rec.Audit.Hash {
			return fmt.Errorf("%w: reconstructed audit record %d does not extend the chain", ErrAuditTampered, rec.Seq)
		}
		a := rec.Audit
		if err := s.audit.append(&a); err != nil {
			return fmt.Errorf("keycom: repair audit chain: %w", err)
		}
		s.rec.AuditRepaired++
	}
	if s.audit.head != auditHead {
		return fmt.Errorf("%w: chain head does not match acknowledged history", ErrAuditTampered)
	}

	s.idx.rebuild(s.policy)
	s.tel.Counter("keycom.audit.repaired").Add(int64(s.rec.AuditRepaired))
	return nil
}

// snapshotState is the snapshot.json payload at seq.
func (s *Store) snapshotState(seq uint64) any {
	return &storeSnapshot{Seq: seq, AuditHead: s.audit.head, Policy: s.policy}
}

// verifiedAuditLen returns the byte length of the first n non-empty
// lines of data (the verified chain prefix).
func verifiedAuditLen(data []byte, n int) int {
	if n == 0 {
		return 0
	}
	off, seen := 0, 0
	for off < len(data) {
		next := off
		for next < len(data) && data[next] != '\n' {
			next++
		}
		if next < len(data) {
			next++ // include the newline
		}
		if len(strings.TrimSpace(string(data[off:next]))) > 0 {
			seen++
		}
		off = next
		if seen == n {
			return off
		}
	}
	return off
}

// Commit durably applies one authorised diff on behalf of requester and
// returns the commit's sequence number. The commit is acknowledged only
// after the WAL frame and the audit line are both fsynced; on any
// failure before that point the in-memory catalogue is untouched and
// the logs are rolled back to the previous acknowledged commit.
func (s *Store) Commit(requester string, d rbac.Diff) (uint64, error) {
	var rec walRecord
	return s.commit(func(seq uint64) any {
		rec = walRecord{
			Seq:  seq,
			Diff: d,
			Audit: AuditRecord{
				Seq:       seq,
				Unix:      s.now(),
				Requester: requester,
				Action:    "commit",
				Summary:   strings.TrimSuffix(d.String(), "\n"),
			},
		}
		rec.Audit.seal(s.audit.head)
		return &rec
	}, func() error {
		// The WAL acknowledged the commit; the audit line must land too,
		// or the log rewinds the frame so the two never disagree.
		a := rec.Audit
		if err := s.audit.append(&a); err != nil {
			return err
		}
		s.policy.Apply(d)
		s.idx.apply(d)
		return nil
	})
}

// Policy returns a snapshot copy of the catalogue.
func (s *Store) Policy() *rbac.Policy {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.policy.Clone()
}

// UserHolds answers the composed access-control decision from the
// sharded index without taking the store lock.
func (s *Store) UserHolds(u rbac.User, ot rbac.ObjectType, p rbac.Permission) bool {
	return s.idx.userHolds(u, ot, p)
}

// AuditHead returns the audit chain head digest.
func (s *Store) AuditHead() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.audit.head
}

// Close closes the log files. Every acknowledged commit is already
// durable, so Close flushes nothing.
func (s *Store) Close() error {
	err := s.durableLog.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.audit != nil {
		if aerr := s.audit.close(); err == nil {
			err = aerr
		}
	}
	return err
}
