package keycom

// The durable keystore. KeyCOM's catalogue state is crash-safe through
// the durable log (log.go); KeyVault is the log's second instance, for
// the keys the catalogue's principals sign with, which otherwise live
// only in memory or in keys.Save files:
//
//	vault.json — the log's snapshot: every registered key pair as of
//	             some acknowledged sequence number;
//	vault.wal  — the log's WAL: one frame per key registered since the
//	             snapshot.
//
// The log supplies recovery, fsync-before-acknowledge and the broken
// latch; the vault adds the record ↔ KeyPair conversion (validated on
// load exactly as keys.Load validates a key file) and snapshot
// compaction. Private keys are stored hex-encoded exactly as keys.Save
// writes them; the vault directory and its files are created 0700/0600.

import (
	"crypto/ed25519"
	"encoding/hex"
	"fmt"

	"securewebcom/internal/faultfs"
	"securewebcom/internal/keys"
	"securewebcom/internal/telemetry"
)

// Vault file names within the vault directory.
const (
	vaultSnapName = "vault.json"
	vaultWALName  = "vault.wal"
)

// vaultLog is the key vault's instance of the durable log.
var vaultLog = logConfig{
	snapName:   vaultSnapName,
	walName:    vaultWALName,
	metric:     "keycom.vault",
	walMetric:  "keycom.vault.wal",
	tornMetric: "keycom.vault.torn.bytes",
}

// vaultRecord is one WAL frame: a single registered key pair.
type vaultRecord struct {
	Seq     uint64 `json:"seq"`
	Name    string `json:"name"`
	Public  string `json:"public"`
	Private string `json:"private,omitempty"`
}

func (r vaultRecord) sequence() uint64 { return r.Seq }

// vaultSnapshot is the vault.json payload.
type vaultSnapshot struct {
	Seq  uint64        `json:"seq"`
	Keys []vaultRecord `json:"keys"`
}

func (s vaultSnapshot) sequence() uint64 { return s.Seq }

// KeyVaultOptions configures OpenKeyVault. The zero value is usable:
// real disk, default snapshot cadence, no telemetry.
type KeyVaultOptions struct {
	// FS is the filesystem the vault lives on. Nil means the real disk;
	// chaos tests pass a faultfs.MemFS.
	FS faultfs.FS
	// Tel receives WAL and recovery metrics. Nil disables.
	Tel *telemetry.Registry
	// SnapshotEvery is the number of Puts between automatic snapshots;
	// 0 means DefaultSnapshotEvery, negative disables automatic
	// snapshots.
	SnapshotEvery int
}

// VaultRecovery reports what OpenKeyVault found and repaired.
type VaultRecovery struct {
	// SnapshotSeq is the sequence number the snapshot covered (0 if no
	// snapshot existed).
	SnapshotSeq uint64
	// Replayed counts WAL records replayed past the snapshot.
	Replayed int
	// TornWALBytes is the length of the discarded torn WAL tail.
	TornWALBytes int64
}

// KeyVault is a durable, crash-safe keys.KeyStore: every Put is
// WAL-appended and fsynced before it is acknowledged. Safe for
// concurrent use; reads go straight to the in-memory store.
type KeyVault struct {
	*durableLog // its mu guards recs
	store       *keys.KeyStore
	recs        []vaultRecord // acknowledged records, snapshot order
}

// OpenKeyVault opens (creating if absent) the vault in dir and recovers
// it to the last acknowledged key.
func OpenKeyVault(dir string, opts KeyVaultOptions) (*KeyVault, error) {
	l, img, err := openLog[vaultSnapshot, vaultRecord](opts.FS, dir, vaultLog, opts.Tel, opts.SnapshotEvery)
	if err != nil {
		return nil, err
	}
	v := &KeyVault{durableLog: l, store: keys.NewKeyStore()}
	for _, r := range img.snap.Keys {
		if err := v.load(r); err != nil {
			return nil, fmt.Errorf("keycom: vault snapshot: %w", err)
		}
	}
	for _, r := range img.recs {
		if err := v.load(r); err != nil {
			return nil, fmt.Errorf("%w: vault record %d: %v", ErrWALCorrupt, r.Seq, err)
		}
	}
	if err := l.start(v.snapshotState); err != nil {
		return nil, err
	}
	return v, nil
}

// load registers one recovered record, refusing a key pair that does
// not validate.
func (v *KeyVault) load(r vaultRecord) error {
	kp, err := recordKeyPair(r)
	if err != nil {
		return err
	}
	v.store.Add(kp)
	v.recs = append(v.recs, r)
	return nil
}

// recordKeyPair rebuilds and validates one key pair from its record,
// with the same checks keys.Load applies to a key file: a private half
// that is malformed or does not derive the public half is corruption,
// not a usable key.
func recordKeyPair(r vaultRecord) (*keys.KeyPair, error) {
	pub, err := keys.DecodePublic(r.Public)
	if err != nil {
		return nil, err
	}
	kp := &keys.KeyPair{Name: r.Name, Public: pub}
	if r.Private != "" {
		raw, err := hex.DecodeString(r.Private)
		if err != nil || len(raw) != ed25519.PrivateKeySize {
			return nil, fmt.Errorf("malformed private key for %q", r.Name)
		}
		kp.Private = ed25519.PrivateKey(raw)
		if keys.EncodePublic(kp.Private.Public().(ed25519.PublicKey)) != r.Public {
			return nil, fmt.Errorf("private key for %q does not match public key", r.Name)
		}
	}
	return kp, nil
}

// Store returns the live in-memory keystore view. Reads are always
// served from here; mutate only through Put so durability holds.
func (v *KeyVault) Store() *keys.KeyStore { return v.store }

// Put durably registers a key pair: the WAL frame is fsynced before Put
// returns, so an acknowledged key survives any crash. Re-registering a
// name replaces the binding (like keys.KeyStore.Add) and is logged as a
// fresh record.
func (v *KeyVault) Put(kp *keys.KeyPair) error {
	r := vaultRecord{Name: kp.Name, Public: kp.PublicID()}
	if kp.Private != nil {
		r.Private = hex.EncodeToString(kp.Private)
	}
	_, err := v.commit(func(seq uint64) any {
		r.Seq = seq
		return &r
	}, func() error {
		v.store.Add(kp)
		v.recs = append(v.recs, r)
		return nil
	})
	return err
}

// snapshotState is the vault.json payload at seq. It compacts first: a
// replaced binding's older records are dead weight, so only the last
// record per name survives into the snapshot.
func (v *KeyVault) snapshotState(seq uint64) any {
	lastIdx := make(map[string]int, len(v.recs))
	for i, r := range v.recs {
		lastIdx[r.Name] = i
	}
	if len(lastIdx) < len(v.recs) {
		compact := make([]vaultRecord, 0, len(lastIdx))
		for i, r := range v.recs {
			if lastIdx[r.Name] == i {
				compact = append(compact, r)
			}
		}
		v.recs = compact
	}
	return &vaultSnapshot{Seq: seq, Keys: v.recs}
}

// RecoveryInfo reports what OpenKeyVault found and repaired.
func (v *KeyVault) RecoveryInfo() VaultRecovery {
	ri := v.durableLog.RecoveryInfo()
	return VaultRecovery{SnapshotSeq: ri.SnapshotSeq, Replayed: ri.Replayed, TornWALBytes: ri.TornWALBytes}
}
