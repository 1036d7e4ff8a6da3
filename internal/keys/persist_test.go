package keys

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSaveLoadPrivate(t *testing.T) {
	dir := t.TempDir()
	kp := Deterministic("Kbob", "persist")
	path := filepath.Join(dir, "kbob.key")
	if err := kp.Save(path, true); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o600 {
		t.Fatalf("key file mode %v, want 0600", info.Mode().Perm())
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "Kbob" || got.PublicID() != kp.PublicID() {
		t.Fatal("identity lost")
	}
	// Loaded private key must sign verifiably.
	sig := got.Sign([]byte("x"))
	if err := Verify(kp.PublicID(), []byte("x"), sig); err != nil {
		t.Fatal(err)
	}
}

func TestSaveLoadPublicOnly(t *testing.T) {
	dir := t.TempDir()
	kp := Deterministic("Kbob", "persist2")
	path := filepath.Join(dir, "kbob.pub")
	if err := kp.Save(path, false); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Private != nil {
		t.Fatal("public-only file yielded a private key")
	}
	if got.PublicID() != kp.PublicID() {
		t.Fatal("public key lost")
	}
}

func TestLoadErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Load(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file loaded")
	}
	bad := filepath.Join(dir, "bad.key")
	os.WriteFile(bad, []byte("not json"), 0o600)
	if _, err := Load(bad); err == nil {
		t.Fatal("bad JSON loaded")
	}
	os.WriteFile(bad, []byte(`{"name":"k","public":"bogus"}`), 0o600)
	if _, err := Load(bad); err == nil {
		t.Fatal("bad public key loaded")
	}
	// Mismatched private/public pair.
	a := Deterministic("Ka", "p3")
	b := Deterministic("Kb", "p3")
	if err := a.Save(bad, true); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(bad)
	tampered := []byte(string(data))
	// Replace public with b's.
	tampered = []byte(replaceOnce(string(tampered), a.PublicID(), b.PublicID()))
	os.WriteFile(bad, tampered, 0o600)
	if _, err := Load(bad); err == nil {
		t.Fatal("mismatched key pair loaded")
	}
}

func replaceOnce(s, old, new string) string {
	for i := 0; i+len(old) <= len(s); i++ {
		if s[i:i+len(old)] == old {
			return s[:i] + new + s[i+len(old):]
		}
	}
	return s
}

func TestLoadPrivateRefusesPublicOnly(t *testing.T) {
	dir := t.TempDir()
	kp := Deterministic("Kbob", "persist-private")
	priv, pub := filepath.Join(dir, "kbob.key"), filepath.Join(dir, "kbob.pub")
	if err := kp.Save(priv, true); err != nil {
		t.Fatal(err)
	}
	if err := kp.Save(pub, false); err != nil {
		t.Fatal(err)
	}
	if got, err := LoadPrivate(priv); err != nil || got.PublicID() != kp.PublicID() {
		t.Fatalf("LoadPrivate(private file) = %v, %v", got, err)
	}
	if _, err := LoadPrivate(pub); err == nil || !strings.Contains(err.Error(), "holds no private key") {
		t.Fatalf("LoadPrivate(public file) err = %v", err)
	}
	if got, err := LoadOrGenerate(priv, "Kignored"); err != nil || got.PublicID() != kp.PublicID() {
		t.Fatalf("LoadOrGenerate(path) = %v, %v", got, err)
	}
	if _, err := LoadOrGenerate(pub, "Kignored"); err == nil {
		t.Fatal("LoadOrGenerate accepted a public-only file")
	}
	got, err := LoadOrGenerate("", "Kfresh")
	if err != nil || got.Name != "Kfresh" || got.Private == nil {
		t.Fatalf("LoadOrGenerate(\"\") = %v, %v", got, err)
	}
}

func TestNewSeededOrFresh(t *testing.T) {
	kp, err := New("Kbob", "seed")
	if err != nil || kp.PublicID() != Deterministic("Kbob", "seed").PublicID() {
		t.Fatalf("New with a seed = %v, %v; want the deterministic key", kp, err)
	}
	a, errA := New("Kbob", "")
	b, errB := New("Kbob", "")
	if errA != nil || errB != nil || a.PublicID() == b.PublicID() {
		t.Fatal("New without a seed must generate a fresh key each time")
	}
}
