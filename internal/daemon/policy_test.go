package daemon

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"securewebcom/internal/keynote"
	"securewebcom/internal/keys"
)

func allows(t *testing.T, chk *keynote.Checker, who *keys.KeyPair, domain string) bool {
	t.Helper()
	res, err := chk.Check(keynote.Query{
		Authorizers: []string{who.PublicID()},
		Attributes:  map[string]string{"app_domain": domain},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Value == "true"
}

func TestTrustPolicy(t *testing.T) {
	dir := t.TempDir()
	leaf, stranger := keys.Deterministic("Kleaf", "daemon"), keys.Deterministic("Kstranger", "daemon")
	leafPub := filepath.Join(dir, "leaf.pub")
	if err := leaf.Save(leafPub, false); err != nil {
		t.Fatal(err)
	}
	policyFile := filepath.Join(dir, "policy.kn")
	extra := "Authorizer: POLICY\nLicensees: \"" + stranger.PublicID() + "\"\nConditions: app_domain==\"WebCom\" && operation==\"echo\";\n"
	if err := os.WriteFile(policyFile, []byte(extra), 0o600); err != nil {
		t.Fatal(err)
	}

	ks := keys.NewKeyStore()
	chk, n, err := TrustPolicy(ks, "leaf", []string{leafPub}, policyFile)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("%d policy assertions, want 2", n)
	}
	if c := chk.Policy()[0].Comment; c != "trusted leaf Kleaf" {
		t.Fatalf("trust assertion comment %q", c)
	}
	if _, err := ks.ByID(leaf.PublicID()); err != nil {
		t.Fatal("trusted key not added to the key store")
	}
	if !allows(t, chk, leaf, "WebCom") || allows(t, chk, leaf, "KeyCOM") {
		t.Fatal("a trusted key must be authorised for WebCom and only WebCom")
	}

	if chk, n, err := TrustPolicy(keys.NewKeyStore(), "client", []string{""}, ""); chk != nil || n != 0 || err != nil {
		t.Fatalf("empty policy = %v, %d, %v; want a nil checker", chk, n, err)
	}
	if _, _, err := TrustPolicy(keys.NewKeyStore(), "client", []string{filepath.Join(dir, "missing.pub")}, ""); err == nil {
		t.Fatal("a missing trust file was accepted")
	}
}

func TestTrustKeys(t *testing.T) {
	admin := keys.Deterministic("Kadmin", "daemon")
	ks := keys.NewKeyStore()
	chk, err := Trust(ks, KeyCOMActions, admin)
	if err != nil {
		t.Fatal(err)
	}
	if !allows(t, chk, admin, "KeyCOM") || allows(t, chk, admin, "WebCom") {
		t.Fatal("Trust must authorise exactly the named application domain")
	}
	if ks.Len() != 1 {
		t.Fatalf("key store holds %d keys, want the trusted one", ks.Len())
	}
}

func TestOpenKeyCOMNeedsAdmin(t *testing.T) {
	_, err := OpenKeyCOM(KeyCOMConfig{Name: "test", Domain: "DOMA", Class: "C", Role: "R"}, keys.NewKeyStore(), nil)
	if err == nil || !strings.Contains(err.Error(), "-admin") {
		t.Fatalf("OpenKeyCOM without an administrator: %v", err)
	}
}
