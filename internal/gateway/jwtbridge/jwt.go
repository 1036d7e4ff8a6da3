// Package jwtbridge turns ordinary web identities into KeyNote
// principals. A client presents a JWT — the lingua franca of web and
// SOA identity providers — and the bridge, after verifying it, mints a
// short-lived KeyNote credential delegating exactly the token's claimed
// scope from the gateway's own key to a principal derived from the
// token subject. From there the compiled authorisation engine treats
// the web client like any other principal in the trust graph: the
// governed-endpoint deployment shape the SOA security-governance
// middleware literature argues for, built on the paper's credential
// plane instead of beside it.
//
// The JWT implementation is deliberately minimal and stdlib-only:
// compact serialisation, HS256 (HMAC-SHA256, shared secret with the
// identity provider) and EdDSA (Ed25519, the repository's native key
// substrate). The verifier is strict — algorithm allow-list from
// configuration (never from the token header), required issuer,
// mandatory expiry — because every accepted token becomes a signing
// operation on the gateway's key.
package jwtbridge

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"securewebcom/internal/keys"
)

// Claims is the verified payload of an accepted token.
type Claims struct {
	Issuer  string `json:"iss"`
	Subject string `json:"sub"`
	// Scope is the space-separated operation list (RFC 8693 style); each
	// element becomes an operation in the minted delegation scope.
	Scope string `json:"scope"`
	// Domains optionally narrows the middleware domains the principal
	// may touch (a custom claim; empty means the scope's operations
	// without a Domain restriction).
	Domains   []string `json:"doms,omitempty"`
	ExpiresAt int64    `json:"exp"`
	NotBefore int64    `json:"nbf,omitempty"`
	IssuedAt  int64    `json:"iat,omitempty"`
}

// Operations splits the scope claim into its operation names.
func (c Claims) Operations() []string {
	return strings.Fields(c.Scope)
}

type header struct {
	Alg string `json:"alg"`
	Typ string `json:"typ,omitempty"`
}

// Errors the verifier distinguishes for callers that map them to HTTP
// statuses.
var (
	ErrMalformed  = errors.New("jwtbridge: malformed token")
	ErrBadSig     = errors.New("jwtbridge: signature verification failed")
	ErrExpired    = errors.New("jwtbridge: token expired")
	ErrNotYet     = errors.New("jwtbridge: token not yet valid")
	ErrBadIssuer  = errors.New("jwtbridge: unknown issuer")
	ErrBadSubject = errors.New("jwtbridge: unusable subject")
	ErrNoScope    = errors.New("jwtbridge: token claims no scope")
)

// Verifier checks compact JWTs against one trust configuration.
type Verifier struct {
	// Issuer is the required iss claim; empty accepts any issuer (only
	// sensible in tests).
	Issuer string
	// HS256Secret enables HS256 tokens signed with this shared secret.
	HS256Secret []byte
	// EdDSAKey enables EdDSA tokens signed by this Ed25519 public key
	// (canonical "ed25519:<hex>" form, the repository's key encoding).
	EdDSAKey string
	// Leeway tolerates clock skew on exp/nbf (default: none).
	Leeway time.Duration
	// MaxSubject bounds the subject length (default 128).
	MaxSubject int
}

const b64 = "base64url"

func decodeSegment(s string) ([]byte, error) {
	b, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrMalformed, b64, err)
	}
	return b, nil
}

// Verify parses and verifies a compact token at the given instant,
// returning its claims. Every error path is reached before any claim is
// trusted.
func (v *Verifier) Verify(now time.Time, token string) (Claims, error) {
	var zero Claims
	parts := strings.Split(token, ".")
	if len(parts) != 3 {
		return zero, fmt.Errorf("%w: want 3 segments, got %d", ErrMalformed, len(parts))
	}
	headBytes, err := decodeSegment(parts[0])
	if err != nil {
		return zero, err
	}
	var h header
	if err := json.Unmarshal(headBytes, &h); err != nil {
		return zero, fmt.Errorf("%w: header: %v", ErrMalformed, err)
	}
	sig, err := decodeSegment(parts[2])
	if err != nil {
		return zero, err
	}
	signed := []byte(parts[0] + "." + parts[1])

	// The algorithm is matched against what this verifier is configured
	// to accept — the token header only selects among configured keys,
	// it can never introduce one ("alg":"none" is just an unknown
	// algorithm here).
	switch h.Alg {
	case "HS256":
		if len(v.HS256Secret) == 0 {
			return zero, fmt.Errorf("%w: HS256 not configured", ErrBadSig)
		}
		mac := hmac.New(sha256.New, v.HS256Secret)
		mac.Write(signed)
		if !hmac.Equal(mac.Sum(nil), sig) {
			return zero, ErrBadSig
		}
	case "EdDSA":
		if v.EdDSAKey == "" {
			return zero, fmt.Errorf("%w: EdDSA not configured", ErrBadSig)
		}
		pub, err := keys.DecodePublic(v.EdDSAKey)
		if err != nil {
			return zero, fmt.Errorf("%w: %v", ErrBadSig, err)
		}
		if len(sig) != ed25519.SignatureSize || !ed25519.Verify(pub, signed, sig) {
			return zero, ErrBadSig
		}
	default:
		return zero, fmt.Errorf("%w: algorithm %q not accepted", ErrBadSig, h.Alg)
	}

	payload, err := decodeSegment(parts[1])
	if err != nil {
		return zero, err
	}
	var c Claims
	if err := json.Unmarshal(payload, &c); err != nil {
		return zero, fmt.Errorf("%w: claims: %v", ErrMalformed, err)
	}
	if v.Issuer != "" && c.Issuer != v.Issuer {
		return zero, fmt.Errorf("%w: %q", ErrBadIssuer, c.Issuer)
	}
	if c.ExpiresAt == 0 {
		return zero, fmt.Errorf("%w: missing exp", ErrMalformed)
	}
	if err := v.checkTimes(now, c.ExpiresAt, c.NotBefore); err != nil {
		return zero, err
	}
	if err := checkSubject(c.Subject, v.maxSubject()); err != nil {
		return zero, err
	}
	if len(c.Operations()) == 0 {
		return zero, ErrNoScope
	}
	return c, nil
}

// checkTimes checks a token's exp and nbf claims (Unix seconds; nbf 0
// means none) against now, tolerating Leeway of skew either way. Verify
// and the bridge's admission cache share it, so a cached token is held
// to exactly the bounds a fresh one is.
func (v *Verifier) checkTimes(now time.Time, exp, nbf int64) error {
	if !now.Before(time.Unix(exp, 0).Add(v.Leeway)) {
		return ErrExpired
	}
	if nbf != 0 && now.Add(v.Leeway).Before(time.Unix(nbf, 0)) {
		return ErrNotYet
	}
	return nil
}

func (v *Verifier) maxSubject() int {
	if v.MaxSubject > 0 {
		return v.MaxSubject
	}
	return 128
}

// checkSubject restricts subjects to a charset that embeds safely in a
// quoted KeyNote principal and a telemetry label: no quotes, no
// backslashes, no control characters, no spaces.
func checkSubject(sub string, max int) error {
	if sub == "" || len(sub) > max {
		return fmt.Errorf("%w: empty or over %d bytes", ErrBadSubject, max)
	}
	for i := 0; i < len(sub); i++ {
		c := sub[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '.' || c == '_' || c == '-' || c == '@' || c == '+' || c == ':' || c == '/'
		if !ok {
			return fmt.Errorf("%w: byte %q at offset %d", ErrBadSubject, c, i)
		}
	}
	return nil
}

// Sign renders claims as a compact token. alg is "HS256" (key is the
// shared secret) or "EdDSA" (kp signs). It is used by tests, the load
// generator, and any deployment where the gateway itself is the
// identity provider.
func Sign(alg string, claims Claims, secret []byte, kp *keys.KeyPair) (string, error) {
	head, err := json.Marshal(header{Alg: alg, Typ: "JWT"})
	if err != nil {
		return "", err
	}
	payload, err := json.Marshal(claims)
	if err != nil {
		return "", err
	}
	signed := base64.RawURLEncoding.EncodeToString(head) + "." +
		base64.RawURLEncoding.EncodeToString(payload)
	var sig []byte
	switch alg {
	case "HS256":
		mac := hmac.New(sha256.New, secret)
		mac.Write([]byte(signed))
		sig = mac.Sum(nil)
	case "EdDSA":
		if kp == nil || kp.Private == nil {
			return "", errors.New("jwtbridge: EdDSA signing needs a private key")
		}
		sig = ed25519.Sign(kp.Private, []byte(signed))
	default:
		return "", fmt.Errorf("jwtbridge: cannot sign with %q", alg)
	}
	return signed + "." + base64.RawURLEncoding.EncodeToString(sig), nil
}
