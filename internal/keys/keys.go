// Package keys provides the cryptographic identity substrate used by the
// trust-management layers (KeyNote and SPKI/SDSI) of Secure WebCom.
//
// The 2004 paper used RSA/DSA keys from the era's KeyNote distribution; this
// reproduction uses Ed25519 from the standard library. The trust-graph
// semantics are independent of the signature algorithm: a principal is a
// public key, rendered in a canonical textual form, and credentials are
// byte strings signed by the authorizing principal's private key.
//
// Canonical forms:
//
//	public key:  "ed25519:<64 hex digits>"
//	signature:   "sig-ed25519:<128 hex digits>"
//
// A KeyStore maps human-readable names ("Kbob") to key pairs so that
// examples and tests can mirror the paper's notation.
package keys

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// PublicPrefix is the canonical textual prefix for public keys.
const PublicPrefix = "ed25519:"

// SigPrefix is the canonical textual prefix for signatures.
const SigPrefix = "sig-ed25519:"

// Errors returned by this package.
var (
	ErrBadKey       = errors.New("keys: malformed public key")
	ErrBadSignature = errors.New("keys: malformed signature")
	ErrVerifyFailed = errors.New("keys: signature verification failed")
	ErrNotFound     = errors.New("keys: name not found in keystore")
)

// KeyPair is a named Ed25519 key pair. Name is advisory (the paper's
// "Kbob"-style labels); the principal's identity is the public key itself.
type KeyPair struct {
	Name    string
	Public  ed25519.PublicKey
	Private ed25519.PrivateKey
}

// Generate creates a fresh random key pair with the given advisory name.
func Generate(name string) (*KeyPair, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("keys: generate %q: %w", name, err)
	}
	return &KeyPair{Name: name, Public: pub, Private: priv}, nil
}

// New generates a fresh key pair, or derives it with Deterministic when
// seed is not empty.
func New(name, seed string) (*KeyPair, error) {
	if seed != "" {
		return Deterministic(name, seed), nil
	}
	return Generate(name)
}

// Deterministic derives a key pair from a name and seed phrase. It is used
// by tests, examples and the paper-figure reproduction harness so that the
// regenerated credentials are stable across runs. Never use it for keys
// that must be secret.
func Deterministic(name, seed string) *KeyPair {
	sum := sha256.Sum256([]byte("securewebcom/deterministic/" + name + "/" + seed))
	priv := ed25519.NewKeyFromSeed(sum[:])
	return &KeyPair{
		Name:    name,
		Public:  priv.Public().(ed25519.PublicKey),
		Private: priv,
	}
}

// PublicID returns the canonical textual form of the public key.
func (kp *KeyPair) PublicID() string {
	return EncodePublic(kp.Public)
}

// Sign signs data with the private key and returns the canonical textual
// signature.
func (kp *KeyPair) Sign(data []byte) string {
	sig := ed25519.Sign(kp.Private, data)
	return SigPrefix + hex.EncodeToString(sig)
}

// EncodePublic renders a raw public key in canonical textual form.
func EncodePublic(pub ed25519.PublicKey) string {
	return PublicPrefix + hex.EncodeToString(pub)
}

// DecodePublic parses a canonical textual public key.
func DecodePublic(id string) (ed25519.PublicKey, error) {
	if !strings.HasPrefix(id, PublicPrefix) {
		return nil, fmt.Errorf("%w: %q lacks %q prefix", ErrBadKey, id, PublicPrefix)
	}
	raw, err := hex.DecodeString(strings.TrimPrefix(id, PublicPrefix))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadKey, err)
	}
	if len(raw) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("%w: got %d bytes, want %d", ErrBadKey, len(raw), ed25519.PublicKeySize)
	}
	return ed25519.PublicKey(raw), nil
}

// IsPublicID reports whether s looks like a canonical public key.
func IsPublicID(s string) bool {
	_, err := DecodePublic(s)
	return err == nil
}

// Verify checks that sig is a valid signature over data by the principal
// identified by pubID (canonical form).
func Verify(pubID string, data []byte, sig string) error {
	pub, err := DecodePublic(pubID)
	if err != nil {
		return err
	}
	if !strings.HasPrefix(sig, SigPrefix) {
		return fmt.Errorf("%w: %q lacks %q prefix", ErrBadSignature, sig, SigPrefix)
	}
	raw, err := hex.DecodeString(strings.TrimPrefix(sig, SigPrefix))
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadSignature, err)
	}
	if len(raw) != ed25519.SignatureSize {
		return fmt.Errorf("%w: got %d bytes, want %d", ErrBadSignature, len(raw), ed25519.SignatureSize)
	}
	if !ed25519.Verify(pub, data, raw) {
		return ErrVerifyFailed
	}
	return nil
}

// keyStoreShards stripes the keystore's two maps across independent
// locks: principal admission resolves keys on every request, and at
// catalogue scale (10⁵+ principals) a single RWMutex in front of both
// maps becomes the contention point.
const keyStoreShards = 16

type keyShard struct {
	mu sync.RWMutex
	m  map[string]*KeyPair
}

func (s *keyShard) get(k string) (*KeyPair, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	kp, ok := s.m[k]
	return kp, ok
}

// keyShardFor is FNV-1a reduced to the shard count.
func keyShardFor(k string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(k); i++ {
		h ^= uint32(k[i])
		h *= 16777619
	}
	return h % keyStoreShards
}

// KeyStore holds named key pairs. It is safe for concurrent use; name
// and ID lookups are striped across independent lock shards.
type KeyStore struct {
	byName [keyStoreShards]keyShard
	byID   [keyStoreShards]keyShard
}

// NewKeyStore returns an empty keystore.
func NewKeyStore() *KeyStore {
	ks := &KeyStore{}
	for i := 0; i < keyStoreShards; i++ {
		ks.byName[i].m = make(map[string]*KeyPair)
		ks.byID[i].m = make(map[string]*KeyPair)
	}
	return ks
}

// Add registers a key pair under its name, replacing any previous binding.
func (ks *KeyStore) Add(kp *KeyPair) {
	id := kp.PublicID()
	sh := &ks.byName[keyShardFor(kp.Name)]
	sh.mu.Lock()
	sh.m[kp.Name] = kp
	sh.mu.Unlock()
	sh = &ks.byID[keyShardFor(id)]
	sh.mu.Lock()
	sh.m[id] = kp
	sh.mu.Unlock()
}

// GenerateNamed generates (or deterministically derives, if seed != "") a
// key pair, registers it, and returns it.
func (ks *KeyStore) GenerateNamed(name, seed string) (*KeyPair, error) {
	kp, err := New(name, seed)
	if err != nil {
		return nil, err
	}
	ks.Add(kp)
	return kp, nil
}

// ByName looks up a key pair by its advisory name.
func (ks *KeyStore) ByName(name string) (*KeyPair, error) {
	kp, ok := ks.byName[keyShardFor(name)].get(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return kp, nil
}

// ByID looks up a key pair by canonical public key.
func (ks *KeyStore) ByID(id string) (*KeyPair, error) {
	kp, ok := ks.byID[keyShardFor(id)].get(id)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return kp, nil
}

// Resolve maps either an advisory name or a canonical ID to the canonical
// ID. Unknown strings that already look like canonical IDs pass through.
func (ks *KeyStore) Resolve(nameOrID string) (string, error) {
	if IsPublicID(nameOrID) {
		return nameOrID, nil
	}
	kp, err := ks.ByName(nameOrID)
	if err != nil {
		return "", err
	}
	return kp.PublicID(), nil
}

// NameFor returns the advisory name for a canonical ID, or the ID itself if
// unknown. Useful for rendering credentials in the paper's notation.
func (ks *KeyStore) NameFor(id string) string {
	if kp, ok := ks.byID[keyShardFor(id)].get(id); ok {
		return kp.Name
	}
	return id
}

// Names returns the sorted advisory names of all stored keys.
func (ks *KeyStore) Names() []string {
	var names []string
	for i := range ks.byName {
		sh := &ks.byName[i]
		sh.mu.RLock()
		for n := range sh.m {
			names = append(names, n)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(names)
	return names
}

// Len returns the number of stored key pairs.
func (ks *KeyStore) Len() int {
	n := 0
	for i := range ks.byName {
		sh := &ks.byName[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}
