package keycom

import (
	"crypto/ed25519"
	"encoding/hex"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"securewebcom/internal/keys"
	"securewebcom/internal/rbac"
)

// FuzzWALReplay throws arbitrary bytes at the WAL parser. Whatever the
// input — valid logs, torn tails, bit flips, adversarial headers — the
// parser must not panic, must bound the good prefix by the input, must
// return contiguous sequence numbers, and must be idempotent over the
// prefix it accepted.
func FuzzWALReplay(f *testing.F) {
	var valid []byte
	prev := ""
	for i := uint64(1); i <= 3; i++ {
		rec := walRecord{Seq: i, Diff: clerkDiff(int(i - 1)), Audit: AuditRecord{
			Seq: i, Unix: 1136214245, Requester: "admin", Action: "commit"}}
		rec.Audit.seal(prev)
		prev = rec.Audit.Hash
		frame, err := encodeWALRecord(&rec)
		if err != nil {
			f.Fatal(err)
		}
		valid = append(valid, frame...)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-5]) // torn tail
	damaged := append([]byte(nil), valid...)
	damaged[len(damaged)/2] ^= 0xA5 // checksum break mid-log
	f.Add(damaged)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // absurd length header
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, good, err := parseWAL[walRecord](data, 0)
		if good < 0 || good > len(data) {
			t.Fatalf("good prefix %d out of range [0,%d]", good, len(data))
		}
		if err != nil {
			if !errors.Is(err, ErrWALCorrupt) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		last := uint64(0)
		for _, r := range recs {
			if r.Seq != last+1 {
				t.Fatalf("discontiguous replay: %d after %d", r.Seq, last)
			}
			last = r.Seq
		}
		// Replay of the accepted prefix is stable: same records, no tail.
		recs2, good2, err2 := parseWAL[walRecord](data[:good], 0)
		if err2 != nil || good2 != good || len(recs2) != len(recs) {
			t.Fatalf("reparse of good prefix diverged: %d/%d records, %d/%d bytes, %v",
				len(recs2), len(recs), good2, good, err2)
		}
		// Applying the replay must be safe.
		p := rbac.NewPolicy()
		for _, r := range recs {
			p.Apply(r.Diff)
		}
	})
}

// FuzzUpdateRequestVerify throws arbitrary JSON at the update-request
// decoder and Verify. Verify must not panic, and a request it accepts
// must carry a signature that verifies, by ed25519 directly, under the
// Requester key over the request's payload.
func FuzzUpdateRequestVerify(f *testing.F) {
	admin := keys.Deterministic("Kadmin", "fuzz-update")
	signed := &UpdateRequest{Requester: admin.PublicID(), Diff: clerkDiff(0)}
	if err := signed.Sign(admin); err != nil {
		f.Fatal(err)
	}
	valid, err := json.Marshal(signed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	tampered := *signed
	tampered.Diff = clerkDiff(1)
	raw, _ := json.Marshal(&tampered)
	f.Add(raw)
	unsigned := *signed
	unsigned.Sig = ""
	raw, _ = json.Marshal(&unsigned)
	f.Add(raw)
	f.Add([]byte(`{"requester":"ed25519:00","sig":"sig-ed25519:zz"}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var r UpdateRequest
		if json.Unmarshal(data, &r) != nil {
			return
		}
		if r.Verify() != nil {
			return
		}
		pub, err := keys.DecodePublic(r.Requester)
		if err != nil {
			t.Fatalf("accepted a request from undecodable requester %q", r.Requester)
		}
		sig, err := hex.DecodeString(strings.TrimPrefix(r.Sig, keys.SigPrefix))
		if err != nil || !strings.HasPrefix(r.Sig, keys.SigPrefix) {
			t.Fatalf("accepted a malformed signature %q", r.Sig)
		}
		if !ed25519.Verify(pub, r.payload(), sig) {
			t.Fatal("accepted a request whose signature does not verify over its payload")
		}
	})
}
