package jwtbridge

import (
	"fmt"
	"strings"
	"time"

	"securewebcom/internal/authz"
	"securewebcom/internal/keynote"
	"securewebcom/internal/keys"
	"securewebcom/internal/telemetry"
)

// PrincipalPrefix namespaces bridged principals so a token subject can
// never collide with (or impersonate) a real key principal: "alice"
// becomes the opaque principal name "jwt:alice", which only credentials
// minted by the gateway's key ever license.
const PrincipalPrefix = "jwt:"

// DefaultTTL bounds a minted credential's lifetime when the
// configuration does not.
const DefaultTTL = 5 * time.Minute

// DefaultGranularity is the bucket the expiry bound is computed on. All
// mints inside one bucket share a NotAfter — and therefore a MintCache
// key — so a hot user costs one Ed25519 signature per bucket, not one
// per request.
const DefaultGranularity = time.Minute

// Bridge mints short-lived, exactly-scoped KeyNote credentials for
// verified JWT subjects. It is safe for concurrent use.
type Bridge struct {
	verifier *Verifier
	signer   *keys.KeyPair
	engine   *authz.Engine
	// admitted caches successful admissions by the exact compact token:
	// a hit skips the signature check, the claim parse, the mint, the
	// lint and the session lookup, and pays only the expiry re-check.
	admitted *authz.EpochCache[admission]
	// mint caches minted, linted credentials by subject and scope, so the
	// tokens of one subject with one scope share a signature per bucket.
	mint *authz.MintCache

	mintHits, mints, rejects, mintErrors *telemetry.Counter

	// AppDomain scopes every minted credential (default "WebCom").
	AppDomain string
	// TTL caps a minted credential's lifetime; the token's own exp
	// shortens it further but never extends it. Default DefaultTTL.
	TTL time.Duration
	// Granularity buckets the expiry bound (default DefaultGranularity).
	Granularity time.Duration
}

// admission is one cached Admit: the principal it returned (marked as a
// cache hit) and the token's exp and nbf claims, re-checked on each hit.
type admission struct {
	p        *Principal
	exp, nbf int64
}

// New builds a bridge that verifies tokens with v and signs delegations
// with signer (which must hold its private half). mintCacheSize bounds
// the admission cache and the underlying authz.MintCache each (<=0:
// authz.DefaultMintCacheSize); both are epoch-guarded by engine, so a
// KeyCOM commit orphans every admitted principal and every minted
// credential at once. Admitted principals
// carry their engine session; a nil engine (tests) leaves it nil.
func New(v *Verifier, signer *keys.KeyPair, engine *authz.Engine, mintCacheSize int, tel *telemetry.Registry) (*Bridge, error) {
	if signer == nil || signer.Private == nil {
		return nil, fmt.Errorf("jwtbridge: signer must hold a private key")
	}
	if mintCacheSize <= 0 {
		mintCacheSize = authz.DefaultMintCacheSize
	}
	return &Bridge{
		verifier:    v,
		signer:      signer,
		engine:      engine,
		admitted:    authz.NewEpochCache[admission](engine, mintCacheSize, nil, "", ""),
		mint:        authz.NewMintCache(engine, mintCacheSize, tel),
		mintHits:    tel.Counter("gateway.bridge.mint_hits"),
		mints:       tel.Counter("gateway.bridge.mints"),
		rejects:     tel.Counter("gateway.bridge.rejects"),
		mintErrors:  tel.Counter("gateway.bridge.mint_errors"),
		AppDomain:   "WebCom",
		TTL:         DefaultTTL,
		Granularity: DefaultGranularity,
	}, nil
}

// Signer returns the canonical principal of the bridge's minting key —
// the principal the gateway's root policy must authorise for everything
// the bridge may delegate.
func (b *Bridge) Signer() string { return b.signer.PublicID() }

// Engine returns the engine admitted principals' sessions belong to
// (nil when the bridge was built without one).
func (b *Bridge) Engine() *authz.Engine { return b.engine }

// Principal is one bridged identity: the KeyNote principal name, the
// credential licensing it, and the scope it was minted for.
type Principal struct {
	// Name is the KeyNote principal ("jwt:<sub>").
	Name string
	// Credential is the minted delegation (gateway key → Name, scoped to
	// the token's claims, expiry-bounded).
	Credential *keynote.Assertion
	// Scope is the delegation scope the credential was minted (and
	// linted) against.
	Scope authz.DelegationScope
	// Session is Credential admitted to the bridge's engine (nil without
	// one).
	Session *authz.CredentialSession
	// CacheHit reports whether no mint was needed: the admission or the
	// credential came from a cache.
	CacheHit bool
}

// notAfter is the expiry bound a token admitted at now is entitled to:
// min(bucketed now+TTL, token exp). It is ErrExpired when that bound is
// not after now.
func (b *Bridge) notAfter(now time.Time, exp int64) (time.Time, error) {
	ttl, gran := b.TTL, b.Granularity
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	if gran <= 0 {
		gran = DefaultGranularity
	}
	bound := now.UTC().Truncate(gran).Add(ttl)
	if e := time.Unix(exp, 0).UTC(); e.Before(bound) {
		bound = e
	}
	if !bound.After(now) {
		return bound, ErrExpired
	}
	return bound, nil
}

// Admit verifies a token and returns its bridged principal. A token
// admitted before under the current epoch, whose expiry bound has not
// moved to the next bucket, is served from the cache after its exp and
// nbf are re-checked against now; anything else is verified, scoped,
// minted and linted (or taken from the mint cache) and admitted to the
// engine afresh. Only successful
// admissions are cached. The minted chain is linted before it is ever
// cached (PL003 widening and every error-severity finding refuse it),
// so an honoured token can only yield a credential at most as wide as
// its claims. Cache hits share one Principal: treat it as read-only.
func (b *Bridge) Admit(now time.Time, token string) (*Principal, error) {
	a, epoch, ok := b.admitted.Get(token)
	if ok {
		bound, err := b.recheck(now, a.exp, a.nbf)
		if err != nil {
			b.rejects.Inc()
			return nil, err
		}
		if bound.Equal(a.p.Scope.NotAfter) {
			b.mintHits.Inc()
			return a.p, nil
		}
	}
	claims, err := b.verifier.Verify(now, token)
	if err != nil {
		b.rejects.Inc()
		return nil, err
	}
	bound, err := b.notAfter(now, claims.ExpiresAt)
	if err != nil {
		b.rejects.Inc()
		return nil, err
	}
	scope := authz.DelegationScope{
		AppDomain:  b.AppDomain,
		Operations: claims.Operations(),
		Domains:    claims.Domains,
		NotAfter:   bound,
	}
	name := PrincipalPrefix + claims.Subject
	cred, hit, err := b.mint.Mint(b.signer, name, scope)
	if err != nil {
		b.mintErrors.Inc()
		return nil, fmt.Errorf("jwtbridge: mint for %s: %w", name, err)
	}
	if hit {
		b.mintHits.Inc()
	} else {
		b.mints.Inc()
	}
	p := &Principal{Name: name, Credential: cred, Scope: scope, CacheHit: hit}
	if b.engine != nil {
		p.Session = b.engine.Session([]*keynote.Assertion{cred})
	}
	cached := *p
	cached.CacheHit = true
	// The token may be a slice of a larger request buffer; the cache
	// keeps a copy of its own.
	b.admitted.Put(strings.Clone(token), admission{p: &cached, exp: claims.ExpiresAt, nbf: claims.NotBefore}, epoch)
	return p, nil
}

// recheck holds a cached admission to the time bounds Verify and Admit
// hold a fresh one to, returning the expiry bound it is entitled to now.
func (b *Bridge) recheck(now time.Time, exp, nbf int64) (time.Time, error) {
	if err := b.verifier.checkTimes(now, exp, nbf); err != nil {
		return time.Time{}, err
	}
	return b.notAfter(now, exp)
}
