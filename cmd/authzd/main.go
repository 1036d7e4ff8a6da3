// Command authzd runs the authorise-as-a-service front door: an HTTP
// daemon that admits JWT bearers, bridges them to short-lived KeyNote
// principals, and answers authorisation queries through the compiled
// decision engine — with per-principal rate limits and concurrency
// shedding at the door (internal/gateway).
//
// Usage:
//
//	authzd -addr 127.0.0.1:8443 -issuer idp.example \
//	    [-hs256-secret-file secret.bin] [-eddsa-issuer ed25519:<hex>] \
//	    [-signer-key gateway.key] [-admin admin.pub] \
//	    [-store /var/lib/authzd] [-ttl 5m] \
//	    [-max-inflight 256] [-rate 200] [-burst 100]
//
// Token verification needs at least one of -hs256-secret-file (shared
// secret bytes) or -eddsa-issuer (the identity provider's Ed25519
// public key in canonical form). With neither, the daemon generates a
// fresh HS256 secret and prints it in hex — demo mode, so a load
// generator on the same box can mint admissible tokens.
//
// The gateway's root policy trusts only the daemon's own minting key
// for app_domain "WebCom"; every admitted client acts through a
// credential that key signed, scoped exactly to the token's claims and
// expiring within the bridge TTL.
//
// With -admin the daemon also hosts a KeyCOM credential plane: signed
// catalogue updates POSTed to /v1/credentials commit (durably, with
// -store) and flip the decision-cache epoch. Telemetry is served under
// /debug/ (metrics, traces, health).
package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"securewebcom/internal/authz"
	harness "securewebcom/internal/daemon" // the tests name their own type daemon
	"securewebcom/internal/gateway"
	"securewebcom/internal/gateway/jwtbridge"
	"securewebcom/internal/keycom"
	"securewebcom/internal/keys"
	"securewebcom/internal/netserve"
	"securewebcom/internal/telemetry"
)

type config struct {
	addr        string
	issuer      string
	hsSecret    string // file holding the HS256 shared secret bytes
	eddsaIssuer string // canonical ed25519:<hex> IdP public key
	signerKey   string // key file for the gateway's minting key pair
	admin       string // administrator public-key file (enables /v1/credentials)
	domain      string
	class       string
	role        string
	storeDir    string
	ttl         time.Duration
	maxInFlight int
	maxBulk     int
	rate        float64
	burst       float64
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:8443", "listen address (use :0 for an ephemeral port)")
	flag.StringVar(&cfg.issuer, "issuer", "authzd-demo-idp", "required iss claim on admitted tokens")
	flag.StringVar(&cfg.hsSecret, "hs256-secret-file", "", "file holding the HS256 shared secret; empty with no -eddsa-issuer generates a demo secret")
	flag.StringVar(&cfg.eddsaIssuer, "eddsa-issuer", "", "identity provider public key (ed25519:<hex>) for EdDSA tokens")
	flag.StringVar(&cfg.signerKey, "signer-key", "", "key file for the gateway minting key; empty generates an ephemeral key")
	flag.StringVar(&cfg.admin, "admin", "", "administrator public-key file; enables the /v1/credentials plane")
	flag.StringVar(&cfg.domain, "domain", "DOMA", "Windows NT domain name of the catalogue")
	flag.StringVar(&cfg.class, "class", "SalariesDB.Component", "demo COM class ProgID")
	flag.StringVar(&cfg.role, "role", "Clerk", "demo COM role granted Access on the class")
	flag.StringVar(&cfg.storeDir, "store", "", "durable KeyCOM store directory; empty keeps the catalogue in memory only")
	flag.DurationVar(&cfg.ttl, "ttl", 0, "minted credential lifetime cap (0: bridge default)")
	flag.IntVar(&cfg.maxInFlight, "max-inflight", 0, "concurrent decide budget (0: gateway default)")
	flag.IntVar(&cfg.maxBulk, "max-bulk-inflight", 0, "concurrent bulk decide budget (0: a quarter of -max-inflight)")
	flag.Float64Var(&cfg.rate, "rate", 0, "per-principal decide rate per second (0: gateway default)")
	flag.Float64Var(&cfg.burst, "burst", 0, "per-principal burst (0: gateway default)")
	flag.Parse()

	harness.Main("authzd", func(out io.Writer, stop <-chan os.Signal) error { return realMain(cfg, out, stop) })
}

// realMain builds the daemon, serves until stop delivers a signal, and
// shuts down gracefully. It is the whole daemon minus process plumbing,
// so tests can run it in a child process and watch out.
func realMain(cfg config, out io.Writer, stop <-chan os.Signal) error {
	tel := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(0)

	// Token verification: a shared secret, an IdP public key, or (demo
	// mode) a freshly generated secret printed for local token minting.
	var hsSecret []byte
	if cfg.hsSecret != "" {
		data, err := os.ReadFile(cfg.hsSecret)
		if err != nil {
			return fmt.Errorf("hs256 secret: %w", err)
		}
		if len(data) == 0 {
			return fmt.Errorf("hs256 secret: %s is empty", cfg.hsSecret)
		}
		hsSecret = data
	}
	demoSecret := false
	if hsSecret == nil && cfg.eddsaIssuer == "" {
		hsSecret = make([]byte, 32)
		if _, err := rand.Read(hsSecret); err != nil {
			return err
		}
		demoSecret = true
	}

	// The bridge signs every minted credential, so the minting key must
	// hold its private half.
	signer, err := keys.LoadOrGenerate(cfg.signerKey, "Kgateway")
	if err != nil {
		return err
	}
	ks := keys.NewKeyStore()

	// The decision plane: the root policy trusts the minting key alone,
	// so every admissible query flows through a bridge-minted credential.
	chk, err := harness.Trust(ks, harness.WebComActions, signer)
	if err != nil {
		return err
	}
	engine := authz.NewEngine(chk, authz.WithTelemetry(tel), authz.WithLayerName("gateway"))

	verifier := &jwtbridge.Verifier{
		Issuer:      cfg.issuer,
		HS256Secret: hsSecret,
		EdDSAKey:    cfg.eddsaIssuer,
	}
	bridge, err := jwtbridge.New(verifier, signer, engine, 0, tel)
	if err != nil {
		return err
	}
	if cfg.ttl > 0 {
		bridge.TTL = cfg.ttl
	}

	// The credential plane rides along only when an administrator key is
	// configured; without one, /v1/credentials answers 503.
	var plane *harness.KeyCOM
	var svc *keycom.Service
	if cfg.admin != "" {
		plane, err = harness.OpenKeyCOM(harness.KeyCOMConfig{Name: "authzd", Domain: cfg.domain,
			Admin: cfg.admin, Class: cfg.class, Role: cfg.role, StoreDir: cfg.storeDir}, ks, out)
		if err != nil {
			return err
		}
		svc = plane.Service
	}

	gw, err := gateway.New(gateway.Config{
		Engine:           engine,
		Bridge:           bridge,
		KeyCOM:           svc,
		Tel:              tel,
		Tracer:           tracer,
		MaxInFlight:      cfg.maxInFlight,
		MaxBulkInFlight:  cfg.maxBulk,
		RatePerPrincipal: cfg.rate,
		Burst:            cfg.burst,
	})
	if err != nil {
		plane.Close()
		return err
	}

	mux := http.NewServeMux()
	mux.Handle("/", gw)
	mux.Handle("/debug/", http.StripPrefix("/debug", telemetry.NewHandler(tel, tracer, nil)))

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		plane.Close()
		return err
	}
	fmt.Fprintf(out, "authzd listening on %s\n", ln.Addr())
	fmt.Fprintf(out, "signer: %s\n", signer.PublicID())
	fmt.Fprintf(out, "issuer: %s\n", cfg.issuer)
	if demoSecret {
		fmt.Fprintf(out, "demo hs256 secret: %s\n", hex.EncodeToString(hsSecret))
	}

	hsrv := netserve.NewHTTPServer(mux)
	return harness.Run("authzd", out, stop, func(context.Context) error {
		return fmt.Errorf("serve: %w", hsrv.Serve(ln))
	}, hsrv, plane)
}
