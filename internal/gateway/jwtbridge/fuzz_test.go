package jwtbridge

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"securewebcom/internal/keys"
)

// FuzzVerify throws arbitrary compact tokens at the verifier. Whatever
// the input, Verify must not panic, and a token it accepts must carry
// the configured issuer, an exp after now, a subject within bounds, and
// an allow-listed algorithm whose signature checks out independently.
func FuzzVerify(f *testing.F) {
	secret := []byte("fuzz-verify-secret")
	idp := keys.Deterministic("Kidp", "fuzz-verify")
	v := &Verifier{Issuer: "idp.example", HS256Secret: secret, EdDSAKey: idp.PublicID()}
	now := testNow

	good := Claims{Issuer: "idp.example", Subject: "alice", Scope: "echo add", ExpiresAt: now.Add(time.Hour).Unix()}
	sign := func(alg string, c Claims) string {
		tok, err := Sign(alg, c, secret, idp)
		if err != nil {
			f.Fatal(err)
		}
		return tok
	}
	f.Add(sign("HS256", good))
	f.Add(sign("EdDSA", good))
	noExp, wrongIss, bigSub := good, good, good
	noExp.ExpiresAt = 0
	wrongIss.Issuer = "evil.example"
	bigSub.Subject = strings.Repeat("s", 4096)
	f.Add(sign("HS256", noExp))
	f.Add(sign("HS256", wrongIss))
	f.Add(sign("HS256", bigSub))
	payload, _ := json.Marshal(good)
	f.Add(b64url([]byte(`{"alg":"none","typ":"JWT"}`)) + "." + b64url(payload) + ".")
	f.Add("a.b.c")
	f.Add("")

	f.Fuzz(func(t *testing.T, token string) {
		c, err := v.Verify(now, token)
		if err != nil {
			return
		}
		if c.Issuer != v.Issuer {
			t.Fatalf("accepted issuer %q, want %q", c.Issuer, v.Issuer)
		}
		if !time.Unix(c.ExpiresAt, 0).After(now) {
			t.Fatalf("accepted a token expiring at %d, not after %d", c.ExpiresAt, now.Unix())
		}
		if c.Subject == "" || len(c.Subject) > v.maxSubject() {
			t.Fatalf("accepted a %d-byte subject", len(c.Subject))
		}
		parts := strings.Split(token, ".")
		head, err1 := base64.RawURLEncoding.DecodeString(parts[0])
		sig, err2 := base64.RawURLEncoding.DecodeString(parts[2])
		var h struct{ Alg string }
		if err1 != nil || err2 != nil || json.Unmarshal(head, &h) != nil {
			t.Fatalf("accepted a token whose header or signature does not decode: %q", token)
		}
		signed := []byte(parts[0] + "." + parts[1])
		switch h.Alg {
		case "HS256":
			mac := hmac.New(sha256.New, secret)
			mac.Write(signed)
			if !hmac.Equal(mac.Sum(nil), sig) {
				t.Fatal("accepted an HS256 token with a wrong MAC")
			}
		case "EdDSA":
			if !ed25519.Verify(idp.Public, signed, sig) {
				t.Fatal("accepted an EdDSA token with a wrong signature")
			}
		default:
			t.Fatalf("accepted algorithm %q", h.Alg)
		}
	})
}
