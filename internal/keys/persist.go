package keys

import (
	"crypto/ed25519"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"securewebcom/internal/faultfs"
)

// keyFile is the on-disk representation of a key pair. The private key is
// stored hex-encoded; files should be created with 0600 permissions (Save
// does so).
type keyFile struct {
	Name    string `json:"name"`
	Public  string `json:"public"`
	Private string `json:"private,omitempty"`
}

// Save writes the key pair to path (mode 0600), replacing any earlier
// file atomically: a crash leaves the old key or the new one, never a
// truncated file. If private is false only the public half is written
// (a distributable identity file).
func (kp *KeyPair) Save(path string, private bool) error {
	kf := keyFile{Name: kp.Name, Public: kp.PublicID()}
	if private {
		kf.Private = hex.EncodeToString(kp.Private)
	}
	data, err := json.MarshalIndent(&kf, "", "  ")
	if err != nil {
		return fmt.Errorf("keys: marshal %q: %w", kp.Name, err)
	}
	return faultfs.WriteFileAtomic(faultfs.OS{}, path, append(data, '\n'), 0o600)
}

// Load reads a key pair from a file written by Save. Public-only files
// yield a KeyPair with a nil Private key (usable for verification only).
func Load(path string) (*KeyPair, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("keys: %w", err)
	}
	var kf keyFile
	if err := json.Unmarshal(data, &kf); err != nil {
		return nil, fmt.Errorf("keys: parse %s: %w", path, err)
	}
	pub, err := DecodePublic(kf.Public)
	if err != nil {
		return nil, fmt.Errorf("keys: %s: %w", path, err)
	}
	kp := &KeyPair{Name: kf.Name, Public: pub}
	if kf.Private != "" {
		raw, err := hex.DecodeString(kf.Private)
		if err != nil || len(raw) != ed25519.PrivateKeySize {
			return nil, fmt.Errorf("keys: %s: malformed private key", path)
		}
		kp.Private = ed25519.PrivateKey(raw)
		derived := kp.Private.Public().(ed25519.PublicKey)
		if EncodePublic(derived) != kf.Public {
			return nil, fmt.Errorf("keys: %s: private key does not match public key", path)
		}
	}
	return kp, nil
}

// LoadPrivate loads a key pair that must hold its private half: a
// signing or authenticating principal, not a distributable identity.
func LoadPrivate(path string) (*KeyPair, error) {
	kp, err := Load(path)
	if err != nil {
		return nil, err
	}
	if kp.Private == nil {
		return nil, fmt.Errorf("keys: %s holds no private key", path)
	}
	return kp, nil
}

// LoadOrGenerate loads a private key pair from path or, when path is
// empty, generates a fresh one named name.
func LoadOrGenerate(path, name string) (*KeyPair, error) {
	if path == "" {
		return Generate(name)
	}
	return LoadPrivate(path)
}
