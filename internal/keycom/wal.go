package keycom

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"

	"securewebcom/internal/rbac"
)

// The write-ahead log format, shared by both durable-log instances (the
// catalogue's wal.log and the key vault's vault.wal; the audit chain is
// JSON lines, not frames). Every record is appended as one
// length-prefixed, checksummed frame:
//
//	[4 bytes big-endian payload length][4 bytes CRC32C of payload][payload]
//
// The payload is the record's JSON, which carries its sequence number
// as "seq". Recovery reads frames sequentially; the first frame whose
// header is short, whose length is implausible, whose checksum fails,
// or whose payload does not decode marks the torn tail — everything
// from that offset is truncated, never loaded. Two things are not a
// torn tail but corruption of acknowledged history, and recovery fails
// loudly on them: a checksum-valid record whose sequence number breaks
// contiguity, and intact frames beyond a damaged one (a crash tears at
// most the final append).

// maxWALRecord bounds a frame's declared payload length so a garbage
// header cannot drive a huge allocation.
const maxWALRecord = 16 << 20

// walHeaderSize is the frame header: length + checksum.
const walHeaderSize = 8

// ErrWALCorrupt reports checksum-valid but semantically impossible WAL
// content (sequence gaps, duplicate sequence numbers, intact frames
// past a damaged one): acknowledged history has been altered, and the
// log refuses to open.
var ErrWALCorrupt = errors.New("keycom: write-ahead log corrupt")

// sequenced is a WAL record or snapshot: JSON that carries the
// sequence number of the last commit it covers.
type sequenced interface{ sequence() uint64 }

// walRecord is one committed catalogue update. It embeds the full audit
// record for the commit so recovery can re-append an audit line the
// crash cut off between the WAL fsync and the audit fsync.
type walRecord struct {
	Seq   uint64      `json:"seq"`
	Diff  rbac.Diff   `json:"diff"`
	Audit AuditRecord `json:"audit"`
}

func (r walRecord) sequence() uint64 { return r.Seq }

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// encodeWALRecord renders the frame for one record.
func encodeWALRecord(rec any) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("keycom: encode wal record: %w", err)
	}
	frame := make([]byte, walHeaderSize, walHeaderSize+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	return append(frame, payload...), nil
}

// frameAt returns the payload of the frame at the start of data, and
// false if there is no whole, checksum-valid frame there.
func frameAt(data []byte) ([]byte, bool) {
	if len(data) < walHeaderSize {
		return nil, false
	}
	n := int(binary.BigEndian.Uint32(data[0:4]))
	if n == 0 || n > maxWALRecord || len(data)-walHeaderSize < n {
		return nil, false
	}
	payload := data[walHeaderSize : walHeaderSize+n]
	if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(data[4:8]) {
		return nil, false
	}
	return payload, true
}

// scanFrames walks the checksum-valid frame prefix of data, handing
// each payload to fn, and returns the byte length of the good prefix.
// The scan ends at the first frame frameAt rejects or fn returning
// false — the torn tail the caller truncates.
func scanFrames(data []byte, fn func(payload []byte) bool) (good int) {
	for {
		payload, ok := frameAt(data[good:])
		if !ok || !fn(payload) {
			return good
		}
		good += walHeaderSize + len(payload)
	}
}

// tornTailIsFinal reports whether the bytes past a log's good prefix
// are explainable as one torn final append. Appends are sequential and
// fsynced one frame at a time, so a crash damages at most the last
// frame; if the bad frame's declared length is plausible and skipping
// it reveals another checksum-valid frame, the damage sits in the
// middle of acknowledged history — corruption, not a crash artifact.
func tornTailIsFinal(tail []byte) bool {
	if len(tail) < walHeaderSize {
		return true
	}
	n := int(binary.BigEndian.Uint32(tail[0:4]))
	if n == 0 || n > maxWALRecord || len(tail)-walHeaderSize < n {
		return true
	}
	_, intact := frameAt(tail[walHeaderSize+n:])
	return !intact
}

// parseWAL decodes the frames of data into records. It returns the
// records past base (the sequence number the snapshot covers) and the
// byte length of the good prefix; bytes past good are a torn tail the
// caller should truncate. Records with Seq <= base are pre-snapshot
// history awaiting truncation and are skipped. A contiguity violation
// among checksum-valid records, or intact frames past the torn tail,
// returns ErrWALCorrupt.
func parseWAL[R sequenced](data []byte, base uint64) (recs []R, good int, err error) {
	last := base
	good = scanFrames(data, func(payload []byte) bool {
		var rec R
		if json.Unmarshal(payload, &rec) != nil {
			return false
		}
		seq := rec.sequence()
		if seq <= base {
			return true
		}
		if seq != last+1 {
			err = fmt.Errorf("%w: record seq %d after %d", ErrWALCorrupt, seq, last)
			return false
		}
		last = seq
		recs = append(recs, rec)
		return true
	})
	if err == nil && !tornTailIsFinal(data[good:]) {
		err = fmt.Errorf("%w: intact frames beyond a damaged record", ErrWALCorrupt)
	}
	return recs, good, err
}
