// Command kn is the KeyNote command-line tool: key generation, assertion
// signing and verification, canonical formatting, and compliance queries.
//
// Usage:
//
//	kn keygen  -name Kbob -out kbob.key [-seed s]
//	kn sign    -key kbob.key -in cred.kn [-out signed.kn]
//	kn verify  -in signed.kn [-keys dir]
//	kn fmt     -in assertions.kn
//	kn query   -policy policy.kn [-creds creds.kn] -authorizer K \
//	           [-attr name=value ...] [-values v1,v2,...] [-keys dir] [-trace]
//
// Assertion files may contain several assertions separated by blank
// lines. The -keys directory holds *.key / *.pub files written by keygen,
// used to resolve advisory names like "Kbob" during verification.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"securewebcom/internal/authz"
	"securewebcom/internal/keynote"
	"securewebcom/internal/keys"
	"securewebcom/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "keygen":
		err = cmdKeygen(args)
	case "sign":
		err = cmdSign(args)
	case "verify":
		err = cmdVerify(args)
	case "fmt":
		err = cmdFmt(args)
	case "query":
		err = cmdQuery(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "kn:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: kn {keygen|sign|verify|fmt|query} [flags]")
	os.Exit(2)
}

func loadKeystore(dir string) (*keys.KeyStore, error) {
	ks := keys.NewKeyStore()
	if dir == "" {
		return ks, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if !strings.HasSuffix(name, ".key") && !strings.HasSuffix(name, ".pub") {
			continue
		}
		kp, err := keys.Load(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		ks.Add(kp)
	}
	return ks, nil
}

func cmdKeygen(args []string) error {
	fs := flag.NewFlagSet("keygen", flag.ExitOnError)
	name := fs.String("name", "", "advisory key name (e.g. Kbob)")
	out := fs.String("out", "", "output key file")
	seed := fs.String("seed", "", "deterministic seed (testing only; empty = random)")
	fs.Parse(args)
	if *name == "" || *out == "" {
		return fmt.Errorf("keygen requires -name and -out")
	}
	kp, err := keys.New(*name, *seed)
	if err != nil {
		return err
	}
	if err := kp.Save(*out, true); err != nil {
		return err
	}
	fmt.Printf("%s %s\n", kp.Name, kp.PublicID())
	return nil
}

func cmdSign(args []string) error {
	fs := flag.NewFlagSet("sign", flag.ExitOnError)
	keyPath := fs.String("key", "", "signer key file (private)")
	in := fs.String("in", "", "assertion file")
	out := fs.String("out", "", "output file (default stdout)")
	fs.Parse(args)
	if *keyPath == "" || *in == "" {
		return fmt.Errorf("sign requires -key and -in")
	}
	kp, err := keys.LoadPrivate(*keyPath)
	if err != nil {
		return err
	}
	asserts, err := readAssertions(*in)
	if err != nil {
		return err
	}
	var b strings.Builder
	for i, a := range asserts {
		if err := a.Sign(kp); err != nil {
			return fmt.Errorf("assertion %d: %w", i+1, err)
		}
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(a.Text())
	}
	if *out == "" {
		fmt.Print(b.String())
		return nil
	}
	return os.WriteFile(*out, []byte(b.String()), 0o644)
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	in := fs.String("in", "", "assertion file")
	keyDir := fs.String("keys", "", "directory of key files for name resolution")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("verify requires -in")
	}
	ks, err := loadKeystore(*keyDir)
	if err != nil {
		return err
	}
	asserts, err := readAssertions(*in)
	if err != nil {
		return err
	}
	for i, a := range asserts {
		if a.IsPolicy() {
			fmt.Printf("assertion %d: POLICY (local, unsigned)\n", i+1)
			continue
		}
		if err := a.VerifySignature(ks); err != nil {
			return fmt.Errorf("assertion %d: %w", i+1, err)
		}
		fmt.Printf("assertion %d: signature by %s OK\n", i+1, ks.NameFor(a.Authorizer))
	}
	return nil
}

func cmdFmt(args []string) error {
	fs := flag.NewFlagSet("fmt", flag.ExitOnError)
	in := fs.String("in", "", "assertion file")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("fmt requires -in")
	}
	asserts, err := readAssertions(*in)
	if err != nil {
		return err
	}
	for i, a := range asserts {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(a.Text())
	}
	return nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	policyPath := fs.String("policy", "", "policy assertion file")
	credsPath := fs.String("creds", "", "credential file (optional)")
	authorizer := fs.String("authorizer", "", "requesting principal (name or key)")
	valuesFlag := fs.String("values", "", "comma-separated compliance values, weakest first")
	keyDir := fs.String("keys", "", "directory of key files for name resolution")
	trace := fs.Bool("trace", false, "decide through the authz engine and print the full decision trace")
	interpret := fs.Bool("interpret", false, "with -trace, decide through the tree-walking interpreter instead of the compiled decision DAG")
	var attrs attrFlags
	fs.Var(&attrs, "attr", "action attribute name=value (repeatable)")
	fs.Parse(args)
	if *policyPath == "" || *authorizer == "" {
		return fmt.Errorf("query requires -policy and -authorizer")
	}
	ks, err := loadKeystore(*keyDir)
	if err != nil {
		return err
	}
	policy, err := readAssertions(*policyPath)
	if err != nil {
		return err
	}
	var creds []*keynote.Assertion
	if *credsPath != "" {
		creds, err = readAssertions(*credsPath)
		if err != nil {
			return err
		}
	}
	chk, err := keynote.NewChecker(policy, keynote.WithResolver(ks))
	if err != nil {
		return err
	}
	q := keynote.Query{Authorizers: []string{*authorizer}, Attributes: attrs.m}
	if *valuesFlag != "" {
		q.Values = strings.Split(*valuesFlag, ",")
	}
	if *trace {
		// The engine path: credentials admitted into a session (verified
		// once), the decision computed with its structured trace. A
		// per-invocation tracer captures the span timings.
		tr := telemetry.NewTracer(0)
		ctx := telemetry.WithTracer(context.Background(), tr)
		var opts []authz.Option
		if *interpret {
			opts = append(opts, authz.WithoutCompilation())
		}
		d, err := authz.NewEngine(chk, opts...).Session(creds).Decide(ctx, q)
		if err != nil {
			return err
		}
		fmt.Print(d.Explain())
		printSpans(tr)
		if !d.Allowed {
			os.Exit(3)
		}
		return nil
	}
	res, err := chk.Check(q, creds)
	if err != nil {
		return err
	}
	fmt.Print(res.Explain())
	if !res.Authorized(q.Values) {
		os.Exit(3) // distinguishable "denied" exit code
	}
	return nil
}

// printSpans renders the finished spans of a per-invocation tracer,
// start-ordered, under the decision trace.
func printSpans(tr *telemetry.Tracer) {
	for _, sp := range tr.Spans() {
		fmt.Printf("  span %-14s %v\n", sp.Name, sp.Duration())
	}
}

// attrFlags collects repeated -attr name=value flags.
type attrFlags struct{ m map[string]string }

func (a *attrFlags) String() string { return fmt.Sprint(a.m) }

func (a *attrFlags) Set(s string) error {
	eq := strings.Index(s, "=")
	if eq <= 0 {
		return fmt.Errorf("attribute %q is not name=value", s)
	}
	if a.m == nil {
		a.m = make(map[string]string)
	}
	a.m[s[:eq]] = s[eq+1:]
	return nil
}

// readAssertions parses every assertion in a KeyNote file.
func readAssertions(path string) ([]*keynote.Assertion, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return keynote.ParseAll(string(data))
}
