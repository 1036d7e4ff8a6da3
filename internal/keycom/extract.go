package keycom

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"securewebcom/internal/keynote"
	"securewebcom/internal/keys"
	"securewebcom/internal/rbac"
)

// Remote policy extraction: the comprehension half of the KeyCOM service.
// A requester authorised for action "extract" receives the administered
// system's current security configuration as an RBAC policy, which the
// caller can merge into a global view (Section 4.2) or feed to a
// migration (Section 4.3) without shell access to the Windows server.

// ActionExtract names the extraction right in the authorisation
// attribute set.
const ActionExtract = "extract"

// ExtractRequest asks for the administered system's current policy.
type ExtractRequest struct {
	Requester   string   `json:"requester"`
	Nonce       string   `json:"nonce"`
	Credentials []string `json:"credentials,omitempty"`
	Sig         string   `json:"sig"`
}

func (r *ExtractRequest) payload() []byte {
	cp := *r
	cp.Sig = ""
	b, err := json.Marshal(&cp)
	if err != nil {
		panic(fmt.Sprintf("keycom: marshal extract payload: %v", err))
	}
	return append([]byte("keycom-extract|"), b...)
}

// Sign signs the request with the requester's key, setting a fresh nonce.
func (r *ExtractRequest) Sign(kp *keys.KeyPair) error {
	if r.Requester != kp.PublicID() {
		return fmt.Errorf("keycom: requester %q is not key %q", r.Requester, kp.Name)
	}
	if r.Nonce == "" {
		n, err := newNonce()
		if err != nil {
			return err
		}
		r.Nonce = n
	}
	r.Sig = kp.Sign(r.payload())
	return nil
}

// Verify checks the request signature.
func (r *ExtractRequest) Verify() error {
	if r.Sig == "" {
		return errors.New("keycom: unsigned extract request")
	}
	return keys.Verify(r.Requester, r.payload(), r.Sig)
}

func newNonce() (string, error) {
	kp, err := keys.Generate("nonce")
	if err != nil {
		return "", err
	}
	// A fresh public key is 32 random bytes; reuse it as nonce material.
	return kp.PublicID()[len("ed25519:"):], nil
}

// Extract validates the request and returns the administered system's
// current policy.
func (s *Service) Extract(ctx context.Context, req *ExtractRequest) (*rbac.Policy, error) {
	if err := req.Verify(); err != nil {
		return nil, err
	}
	creds := make([]*keynote.Assertion, 0, len(req.Credentials))
	for _, text := range req.Credentials {
		a, err := keynote.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("keycom: malformed credential: %w", err)
		}
		creds = append(creds, a)
	}
	eng := s.Engine()
	if eng == nil {
		return nil, errors.New("keycom: no checker configured")
	}
	if err := s.authorise(ctx, eng.Session(creds), req.Requester, ActionExtract, nil); err != nil {
		return nil, err
	}
	return s.System.ExtractPolicy(ctx)
}

// wireEnvelope is the top-level request frame: exactly one of Update or
// Extract is set. A bare UpdateRequest (no envelope) is also accepted for
// compatibility with the original protocol.
type wireEnvelope struct {
	Update  *UpdateRequest  `json:"update,omitempty"`
	Extract *ExtractRequest `json:"extract,omitempty"`

	// Legacy flat update fields (when the frame is a bare UpdateRequest).
	Requester   string    `json:"requester,omitempty"`
	Diff        rbac.Diff `json:"diff,omitempty"`
	Credentials []string  `json:"credentials,omitempty"`
	Sig         string    `json:"sig,omitempty"`
}

// SubmitExtract sends a signed extract request and returns the policy.
func SubmitExtract(addr string, req *ExtractRequest) (*rbac.Policy, error) {
	var resp wireResponse
	if err := roundTrip(addr, &wireEnvelope{Extract: req}, &resp); err != nil {
		return nil, err
	}
	p := rbac.NewPolicy()
	if err := json.Unmarshal(resp.Policy, p); err != nil {
		return nil, err
	}
	return p, nil
}
