package authz

// Amortised delegation. A federated WebCom run delegates the same
// condensed subgraphs to the same sub-masters over and over, and the
// naive path pays an Ed25519 mint plus a policylint pass on the minting
// side and another lint on the receiving side for every delegation —
// the dominant cost of the hierarchical topology. Grid security systems
// amortise exactly this by caching restricted delegated credentials
// across requests (Welch et al., Security for Grid Services); this file
// is that cache, split across the two ends:
//
//   - MintCache (minting side): minted-and-linted credentials keyed by
//     (parent key, delegate principal, scope), so a repeat delegation
//     reuses the signed assertion byte-for-byte. Reuse is what makes
//     the receiving side's skip sound: an identical credential text
//     yields an identical chain fingerprint.
//
//   - DelegationVerdicts (receiving side): a fingerprint→verdict table
//     recording which exact (parent, chain, scope) triples already
//     linted clean, so re-admission of an unchanged chain skips the
//     re-lint. Only passes are recorded — a failing chain re-lints and
//     re-fails, keeping the denial path unamortised and fully traced.
//
// Both are EpochCache instances guarded by the owning Engine (see
// cache.go), like the WebCom verdict sets: a credential minted or a
// verdict stamped under policy N can never be honoured under policy
// N+1.

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"

	"securewebcom/internal/keynote"
	"securewebcom/internal/keys"
	"securewebcom/internal/telemetry"
)

// DefaultMintCacheSize bounds the delegation mint cache.
const DefaultMintCacheSize = 256

// delegationVerdictsCap bounds a relint-skip table.
const delegationVerdictsCap = 1024

// scopeKey renders (delegate principal, scope) deterministically:
// operations and domains are deduped and sorted, so two scopes that
// admit the same vocabulary share one key regardless of spelling order.
func scopeKey(delegate string, scope DelegationScope) string {
	app := scope.AppDomain
	if app == "" {
		app = "WebCom"
	}
	var b strings.Builder
	b.WriteString(delegate)
	b.WriteByte(0x1e)
	b.WriteString(app)
	b.WriteByte(0x1e)
	for _, op := range dedupe(scope.Operations) {
		b.WriteString(op)
		b.WriteByte(0x1f)
	}
	b.WriteByte(0x1e)
	for _, d := range dedupe(scope.Domains) {
		b.WriteString(d)
		b.WriteByte(0x1f)
	}
	if !scope.NotAfter.IsZero() {
		// The bound participates in the key, so a re-mint after expiry is
		// a cache miss rather than a stale hit. Callers that want hits
		// across requests bucket the bound (the JWT bridge rounds it to a
		// coarse granularity).
		b.WriteByte(0x1e)
		b.WriteString(scope.notAfterBound())
	}
	return b.String()
}

// MintCache caches minted, mint-side-linted delegation credentials. It
// is owned by the delegating master and safe for concurrent use.
type MintCache struct {
	lru *EpochCache[*keynote.Assertion]
}

// NewMintCache builds a mint cache guarded by engine's epoch (nil
// engine disables invalidation — only sensible in tests). capacity <= 0
// means DefaultMintCacheSize.
func NewMintCache(engine *Engine, capacity int, tel *telemetry.Registry) *MintCache {
	if capacity <= 0 {
		capacity = DefaultMintCacheSize
	}
	return &MintCache{lru: NewEpochCache[*keynote.Assertion](engine, capacity, tel,
		"authz.mint_cache.hits", "authz.mint_cache.misses")}
}

// Mint returns the delegation credential authorising delegate for
// exactly scope, minting, validating and caching a fresh one when the
// cache has no live entry. hit reports whether the credential came from
// the cache — a hit costs one lock and one map lookup; a miss pays the
// full Ed25519 signature plus the mint-side lint before the credential
// is ever cached, so every cached entry is known-honourable.
func (c *MintCache) Mint(parent *keys.KeyPair, delegate string, scope DelegationScope) (cred *keynote.Assertion, hit bool, err error) {
	key := parent.PublicID() + "\x1e" + scopeKey(delegate, scope)
	cred, epoch, ok := c.lru.Get(key)
	if ok {
		return cred, true, nil
	}
	cred, err = MintScopedDelegation(parent, delegate, scope)
	if err != nil {
		return nil, false, err
	}
	if err := ValidateDelegation(parent.PublicID(), []*keynote.Assertion{cred}, scope); err != nil {
		return nil, false, err
	}
	c.lru.Put(key, cred, epoch)
	return cred, false, nil
}

// delegationFingerprint hashes one admission-checked triple: the
// claimed parent principal, the scope, and the chain texts in order
// (chain order is semantically relevant to the lint root).
func delegationFingerprint(parent string, chain []*keynote.Assertion, scope DelegationScope) string {
	h := sha256.New()
	h.Write([]byte(parent))
	h.Write([]byte{0})
	h.Write([]byte(scopeKey("", scope)))
	h.Write([]byte{0})
	for _, a := range chain {
		h.Write([]byte(a.Text()))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// DelegationVerdicts is the sub-master's relint-skip table: the set of
// delegation-chain fingerprints that already linted clean in the
// current epoch. A nil *DelegationVerdicts always lints.
type DelegationVerdicts struct {
	passed *EpochCache[struct{}]
}

// NewDelegationVerdicts builds a relint-skip table guarded by engine's
// epoch.
func NewDelegationVerdicts(engine *Engine, tel *telemetry.Registry) *DelegationVerdicts {
	return &DelegationVerdicts{passed: NewEpochCache[struct{}](engine, delegationVerdictsCap, tel,
		"authz.relint.skips", "authz.relint.lints")}
}

// Validate runs ValidateDelegation, skipping the lint when this exact
// (parent, chain, scope) triple passed before under the current epoch.
// skipped reports whether the lint was skipped. Failures are never
// recorded: a dishonourable chain re-lints (and re-fails, with full
// findings) every time it is presented.
func (v *DelegationVerdicts) Validate(parent string, chain []*keynote.Assertion, scope DelegationScope) (skipped bool, err error) {
	if v == nil {
		return false, ValidateDelegation(parent, chain, scope)
	}
	fp := delegationFingerprint(parent, chain, scope)
	_, epoch, ok := v.passed.Get(fp)
	if ok {
		return true, nil
	}
	if err := ValidateDelegation(parent, chain, scope); err != nil {
		return false, err
	}
	v.passed.Put(fp, struct{}{}, epoch)
	return false, nil
}
