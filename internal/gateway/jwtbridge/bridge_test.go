package jwtbridge

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"securewebcom/internal/authz"
	"securewebcom/internal/keynote"
	"securewebcom/internal/keys"
	"securewebcom/internal/telemetry"
)

func newTestBridge(t *testing.T, secret []byte) *Bridge {
	t.Helper()
	signer := keys.Deterministic("Kgateway", "bridge-test")
	br, err := New(&Verifier{Issuer: "idp.example", HS256Secret: secret}, signer, nil, 0, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	return br
}

func TestBridgeAdmitMintsAndCaches(t *testing.T) {
	secret := []byte("s3cret")
	br := newTestBridge(t, secret)
	tok := hsToken(t, secret, baseClaims())

	p1, err := br.Admit(testNow, tok)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Name != "jwt:alice" {
		t.Fatalf("principal %q, want jwt:alice", p1.Name)
	}
	if p1.CacheHit {
		t.Fatal("first admit reported a cache hit")
	}
	// Same bucket, same token: byte-identical credential from the cache.
	p2, err := br.Admit(testNow.Add(10*time.Second), tok)
	if err != nil {
		t.Fatal(err)
	}
	if !p2.CacheHit {
		t.Fatal("second admit in the same bucket missed the mint cache")
	}
	if p1.Credential.Text() != p2.Credential.Text() {
		t.Fatal("cache hit returned a different credential text")
	}
	// Next bucket: fresh bound, fresh mint.
	p3, err := br.Admit(testNow.Add(br.Granularity), tok)
	if err != nil {
		t.Fatal(err)
	}
	if p3.CacheHit {
		t.Fatal("next bucket still hit the cache — expiry bound not keyed")
	}
}

func TestBridgeExpiryCapsAtTokenExp(t *testing.T) {
	secret := []byte("s3cret")
	br := newTestBridge(t, secret)
	c := baseClaims()
	c.ExpiresAt = testNow.Add(30 * time.Second).Unix() // shorter than TTL
	p, err := br.Admit(testNow, hsToken(t, secret, c))
	if err != nil {
		t.Fatal(err)
	}
	if want := time.Unix(c.ExpiresAt, 0).UTC(); !p.Scope.NotAfter.Equal(want) {
		t.Fatalf("NotAfter %v, want token exp %v", p.Scope.NotAfter, want)
	}
	// A token that out-lives the TTL is clamped to the bucketed TTL bound.
	long := baseClaims()
	long.ExpiresAt = testNow.Add(24 * time.Hour).Unix()
	p2, err := br.Admit(testNow, hsToken(t, secret, long))
	if err != nil {
		t.Fatal(err)
	}
	if max := testNow.Add(br.TTL); p2.Scope.NotAfter.After(max) {
		t.Fatalf("NotAfter %v exceeds TTL cap %v", p2.Scope.NotAfter, max)
	}
}

func TestBridgeRefusesBadTokens(t *testing.T) {
	secret := []byte("s3cret")
	br := newTestBridge(t, secret)
	expired := baseClaims()
	expired.ExpiresAt = testNow.Add(-time.Minute).Unix()
	if _, err := br.Admit(testNow, hsToken(t, secret, expired)); !errors.Is(err, ErrExpired) {
		t.Fatalf("expired token admitted: %v", err)
	}
	if _, err := br.Admit(testNow, "garbage"); !errors.Is(err, ErrMalformed) {
		t.Fatalf("garbage token: %v", err)
	}
	if _, err := br.Admit(testNow, hsToken(t, []byte("wrong"), baseClaims())); !errors.Is(err, ErrBadSig) {
		t.Fatalf("forged token: %v", err)
	}
}

// TestBridgeNeverMintsWiderThanClaims is the satellite property test:
// across random claim sets, the minted credential must validate against
// exactly the claimed scope, and must be REFUSED (PL003 privilege
// widening) against any strictly narrower scope — i.e. the credential
// covers the claims and nothing more.
func TestBridgeNeverMintsWiderThanClaims(t *testing.T) {
	opUniverse := []string{"echo", "add", "multiply", "transfer", "audit", "read", "write"}
	domUniverse := []string{"Finance", "HR", "Sales", "Engineering"}
	secret := []byte("s3cret")
	br := newTestBridge(t, secret)
	rng := rand.New(rand.NewSource(1))

	pick := func(universe []string, n int) []string {
		perm := rng.Perm(len(universe))
		out := make([]string, n)
		for i := 0; i < n; i++ {
			out[i] = universe[perm[i]]
		}
		return out
	}

	for i := 0; i < 250; i++ {
		ops := pick(opUniverse, 1+rng.Intn(len(opUniverse)))
		var doms []string
		if rng.Intn(2) == 0 {
			doms = pick(domUniverse, 1+rng.Intn(len(domUniverse)))
		}
		c := Claims{
			Issuer:    "idp.example",
			Subject:   "user-" + string(rune('a'+rng.Intn(26))),
			Scope:     strings.Join(ops, " "),
			Domains:   doms,
			ExpiresAt: testNow.Add(time.Duration(1+rng.Intn(120)) * time.Minute).Unix(),
		}
		p, err := br.Admit(testNow, hsToken(t, secret, c))
		if err != nil {
			t.Fatalf("iter %d: admit: %v", i, err)
		}
		chain := []*keynote.Assertion{p.Credential}

		// Oracle, exact scope: a chain minted for the claims must lint
		// honourable against the claims.
		claimScope := authz.DelegationScope{
			AppDomain:  "WebCom",
			Operations: ops,
			Domains:    doms,
			NotAfter:   p.Scope.NotAfter,
		}
		if err := authz.ValidateDelegation(br.Signer(), chain, claimScope); err != nil {
			t.Fatalf("iter %d: minted credential invalid against its own claims: %v", i, err)
		}

		// Oracle, narrowed scope: drop one claimed operation — the
		// credential now licenses more than the scope and PL003 must fire.
		if len(ops) > 1 {
			narrowed := claimScope
			narrowed.Operations = ops[1:]
			err := authz.ValidateDelegation(br.Signer(), chain, narrowed)
			if err == nil || !strings.Contains(err.Error(), "PL003") {
				t.Fatalf("iter %d: credential for ops %v passed against narrowed %v: %v",
					i, ops, narrowed.Operations, err)
			}
		}
		// Same for domains, when the token named any.
		if len(doms) > 1 {
			narrowed := claimScope
			narrowed.Domains = doms[1:]
			err := authz.ValidateDelegation(br.Signer(), chain, narrowed)
			if err == nil || !strings.Contains(err.Error(), "PL003") {
				t.Fatalf("iter %d: credential for doms %v passed against narrowed %v: %v",
					i, doms, narrowed.Domains, err)
			}
		}
	}
}

// TestBridgeGoldenCredentialText pins the exact minted credential for a
// fixed key, subject and bucket. Everything is deterministic — the
// deterministic gateway key, the RFC3339 expiry bound, the canonical
// condition ordering — so a diff here means the wire format of bridged
// credentials changed, which invalidates every cached verdict keyed on
// credential text.
func TestBridgeGoldenCredentialText(t *testing.T) {
	secret := []byte("s3cret")
	br := newTestBridge(t, secret)
	c := Claims{
		Issuer:    "idp.example",
		Subject:   "alice",
		Scope:     "echo add",
		Domains:   []string{"Finance"},
		ExpiresAt: testNow.Add(time.Hour).Unix(),
	}
	p, err := br.Admit(testNow, hsToken(t, secret, c))
	if err != nil {
		t.Fatal(err)
	}
	got := p.Credential.Text()
	want := `KeyNote-Version: 2
Authorizer: "ed25519:8f419d1f7469709f9f9a65ccdc63e70c4c5fff0cda2a1faf8d9ffe5721be89c9"
Licensees: "jwt:alice"
Conditions: app_domain=="WebCom" && (operation=="add" || operation=="echo") && Domain=="Finance" && not_after < "2026-08-07T12:05:00Z";
Signature: sig-ed25519:5fe939ed50e48da8c876c27874f1570d14bc3891edfd58bfddfa56a9ec0193fafb7906265c770dd538d9769167475ba45ef1f5acd2eaa7be2f368f025c755f0b
`
	if got != want {
		t.Fatalf("minted credential text drifted.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// The admission cache serves a token by its exact bytes and skips
// Verify. These tests pin what a hit must still check: each fails
// against a bridge that skips the matching check on a hit.

// TestAdmitCacheRefusesExpiredToken: a cached token is refused with
// ErrExpired once now reaches exp+Leeway, though its expiry bound still
// names the cached entry.
func TestAdmitCacheRefusesExpiredToken(t *testing.T) {
	secret := []byte("s3cret")
	br := newTestBridge(t, secret)
	br.verifier.Leeway = 10 * time.Second
	c := baseClaims()
	c.ExpiresAt = testNow.Add(30 * time.Second).Unix() // bound = exp, in every bucket
	tok := hsToken(t, secret, c)
	if _, err := br.Admit(testNow, tok); err != nil {
		t.Fatal(err)
	}
	if p, err := br.Admit(testNow.Add(20*time.Second), tok); err != nil || !p.CacheHit {
		t.Fatalf("admit inside exp: hit %v, err %v", p != nil && p.CacheHit, err)
	}
	late := time.Unix(c.ExpiresAt, 0).Add(br.verifier.Leeway)
	if _, err := br.Admit(late, tok); !errors.Is(err, ErrExpired) {
		t.Fatalf("cached token at exp+Leeway: err %v, want ErrExpired", err)
	}
}

// TestAdmitCacheRefusesTokenBeforeNbf: a token admitted after its nbf
// is refused with ErrNotYet when presented again, in the same bucket,
// at an instant before its nbf.
func TestAdmitCacheRefusesTokenBeforeNbf(t *testing.T) {
	secret := []byte("s3cret")
	br := newTestBridge(t, secret)
	c := baseClaims()
	c.NotBefore = testNow.Add(20 * time.Second).Unix()
	tok := hsToken(t, secret, c)
	if _, err := br.Admit(testNow.Add(30*time.Second), tok); err != nil {
		t.Fatal(err)
	}
	if _, err := br.Admit(testNow.Add(5*time.Second), tok); !errors.Is(err, ErrNotYet) {
		t.Fatalf("cached token before nbf: err %v, want ErrNotYet", err)
	}
}

// TestAdmitCacheRefusesFlippedSignature: the cache is keyed by the
// whole token, so a cached token with one signature byte changed is
// verified afresh and refused.
func TestAdmitCacheRefusesFlippedSignature(t *testing.T) {
	secret := []byte("s3cret")
	br := newTestBridge(t, secret)
	tok := hsToken(t, secret, baseClaims())
	if _, err := br.Admit(testNow, tok); err != nil {
		t.Fatal(err)
	}
	// Flip a character in the middle of the signature segment: its six
	// bits all land in the decoded signature.
	i := strings.LastIndexByte(tok, '.') + 10
	flip := byte('A')
	if tok[i] == flip {
		flip = 'B'
	}
	forged := tok[:i] + string(flip) + tok[i+1:]
	if _, err := br.Admit(testNow, forged); !errors.Is(err, ErrBadSig) {
		t.Fatalf("token with a flipped signature byte: err %v, want ErrBadSig", err)
	}
}

// TestAdmitCacheRemintsAfterCommit: an engine epoch bump (a KeyCOM
// commit) orphans every cached admission, so the next admit mints once
// more, into a session of the new epoch.
func TestAdmitCacheRemintsAfterCommit(t *testing.T) {
	secret := []byte("s3cret")
	signer := keys.Deterministic("Kgateway", "bridge-test")
	ks := keys.NewKeyStore()
	ks.Add(signer)
	policy := keynote.MustNew("POLICY", `"`+signer.PublicID()+`"`, `app_domain=="WebCom";`)
	chk, err := keynote.NewChecker([]*keynote.Assertion{policy}, keynote.WithResolver(ks))
	if err != nil {
		t.Fatal(err)
	}
	engine := authz.NewEngine(chk)
	tel := telemetry.NewRegistry()
	br, err := New(&Verifier{Issuer: "idp.example", HS256Secret: secret}, signer, engine, 0, tel)
	if err != nil {
		t.Fatal(err)
	}
	tok := hsToken(t, secret, baseClaims())
	mints := tel.Counter("gateway.bridge.mints")

	p1, err := br.Admit(testNow, tok)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Session == nil || p1.Session != engine.Session([]*keynote.Assertion{p1.Credential}) {
		t.Fatal("admitted principal does not carry its engine session")
	}
	if p2, err := br.Admit(testNow, tok); err != nil || !p2.CacheHit {
		t.Fatalf("second admit: hit %v, err %v", p2 != nil && p2.CacheHit, err)
	}
	before := mints.Value()
	engine.Invalidate()
	p3, err := br.Admit(testNow, tok)
	if err != nil {
		t.Fatal(err)
	}
	if p3.CacheHit {
		t.Fatal("admit after an epoch bump hit the cache")
	}
	if got := mints.Value(); got != before+1 {
		t.Fatalf("gateway.bridge.mints %d after the commit, want %d", got, before+1)
	}
	if p3.Session == p1.Session {
		t.Fatal("admit after an epoch bump reused the pre-commit session")
	}
}

// TestAdmitCacheBounded: the cache never holds more entries than the
// mint-cache size the bridge was built with.
func TestAdmitCacheBounded(t *testing.T) {
	const capacity = 4
	secret := []byte("s3cret")
	br, err := New(&Verifier{Issuer: "idp.example", HS256Secret: secret},
		keys.Deterministic("Kgateway", "bridge-test"), nil, capacity, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*capacity; i++ {
		c := baseClaims()
		c.Subject = "user-" + string(rune('a'+i))
		if _, err := br.Admit(testNow, hsToken(t, secret, c)); err != nil {
			t.Fatal(err)
		}
		if n := br.admitted.Len(); n > capacity {
			t.Fatalf("after %d tokens the cache holds %d entries, capacity %d", i+1, n, capacity)
		}
	}
}

// TestAdmitRotatedTokensShareMint: distinct tokens of one subject and
// one scope, admitted in one expiry bucket, each miss the admission
// cache but share one minted credential through the mint cache.
func TestAdmitRotatedTokensShareMint(t *testing.T) {
	secret := []byte("s3cret")
	tel := telemetry.NewRegistry()
	br, err := New(&Verifier{Issuer: "idp.example", HS256Secret: secret},
		keys.Deterministic("Kgateway", "bridge-test"), nil, 0, tel)
	if err != nil {
		t.Fatal(err)
	}
	var first *Principal
	for i := 0; i < 3; i++ {
		c := baseClaims()
		c.IssuedAt = testNow.Add(-time.Duration(i) * time.Second).Unix() // a new token each time
		p, err := br.Admit(testNow, hsToken(t, secret, c))
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = p
			continue
		}
		if !p.CacheHit || p.Credential != first.Credential {
			t.Fatalf("rotated token %d: hit %v, same credential %v", i, p.CacheHit, p.Credential == first.Credential)
		}
	}
	if n := tel.Counter("gateway.bridge.mints").Value(); n != 1 {
		t.Fatalf("gateway.bridge.mints %d for one subject and scope, want 1", n)
	}
	if n := br.admitted.Len(); n != 3 {
		t.Fatalf("admission cache holds %d tokens, want 3", n)
	}
}
