// Command policytool manipulates RBAC policies in the unified model:
// encoding to / decoding from KeyNote, migrating between middleware
// vocabularies, diffing, validating and rendering.
//
// Usage:
//
//	policytool render   -in policy.json
//	policytool validate -in policy.json
//	policytool diff     -old old.json -new new.json
//	policytool encode   -in policy.json -admin admin.key [-keys dir] [-out dir]
//	policytool decode   -policy pol.kn [-creds creds.kn] [-keys dir] [-admin-id K]
//	policytool migrate  -in policy.json [-map old=new ...] \
//	                    [-vocab Launch,Access,RunAs] [-min-score 0.5]
//	policytool lint     -policy pol.kn [-creds creds.kn] [-rbac policy.json] \
//	                    [-app-domain WebCom] [-keys dir] [-json] [-skip-sig] [-now 20040101]
//	policytool check    -policy pol.kn [-creds creds.kn] -authorizer K \
//	                    [-attr name=value ...] [-keys dir] [-trace]
//
// Policies are JSON files in the two-relation format of internal/rbac.
// encode writes a KeyNote policy assertion plus one signed credential per
// user, creating per-user keys in -keys (deterministic names "K<user>").
//
// lint runs the internal/policylint static analyser over a credential
// set and exits 0 (clean or info), 1 (warnings) or 2 (errors). With
// -rbac the set is additionally checked against that catalogue's
// vocabulary; with -keys signatures are verified against the stored
// keys.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"securewebcom/internal/authz"
	"securewebcom/internal/keycom"
	"securewebcom/internal/keynote"
	"securewebcom/internal/keys"
	"securewebcom/internal/policylint"
	"securewebcom/internal/rbac"
	"securewebcom/internal/telemetry"
	"securewebcom/internal/translate"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "render":
		err = cmdRender(args)
	case "validate":
		err = cmdValidate(args)
	case "diff":
		err = cmdDiff(args)
	case "encode":
		err = cmdEncode(args)
	case "decode":
		err = cmdDecode(args)
	case "migrate":
		err = cmdMigrate(args)
	case "lint":
		rep, lintErr := cmdLint(args, os.Stdout)
		if lintErr != nil {
			fmt.Fprintln(os.Stderr, "policytool:", lintErr)
			os.Exit(1)
		}
		os.Exit(rep.ExitCode())
	case "remote-extract":
		err = cmdRemoteExtract(args)
	case "audit":
		err = cmdAudit(args, os.Stdout)
	case "check":
		err = cmdCheck(args)
	case "metrics":
		err = cmdMetrics(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "policytool:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr,
		"usage: policytool {render|validate|diff|encode|decode|migrate|lint|remote-extract|audit|check|metrics} [flags]")
	os.Exit(2)
}

// cmdAudit verifies a KeyCOM store's hash-chained audit log offline:
// every record's digest is recomputed, every link checked against its
// predecessor, and the sequence numbers must run contiguously from 1 —
// so reordering and in-place edits are detected without trusting the
// machine that wrote the log. With -dir the chain is additionally
// cross-referenced against the store's snapshot and write-ahead log,
// which pin the length the chain must reach — catching a truncated
// tail that is self-consistent on its own.
func cmdAudit(args []string, w io.Writer) error {
	if len(args) < 1 || args[0] != "verify" {
		return fmt.Errorf("usage: policytool audit verify {-dir storedir | -file audit.log}")
	}
	fs := flag.NewFlagSet("audit verify", flag.ExitOnError)
	dir := fs.String("dir", "", "KeyCOM store directory (cross-checks audit.log against snapshot and WAL)")
	file := fs.String("file", "", "audit log file to verify (chain consistency only)")
	jsonOut := fs.Bool("json", false, "emit the verified records as JSON")
	fs.Parse(args[1:])
	var chain []keycom.AuditRecord
	var path string
	switch {
	case *dir != "":
		path = filepath.Join(*dir, "audit.log")
		var err error
		if chain, err = keycom.VerifyStoreAudit(nil, *dir); err != nil {
			return fmt.Errorf("%s: %w", *dir, err)
		}
	case *file != "":
		path = *file
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if chain, err = keycom.VerifyAuditChain(data); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	default:
		return fmt.Errorf("audit verify requires -dir or -file")
	}
	if *jsonOut {
		out, err := json.MarshalIndent(chain, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(w, string(out))
		return nil
	}
	if len(chain) == 0 {
		fmt.Fprintf(w, "%s: empty chain OK\n", path)
		return nil
	}
	head := chain[len(chain)-1]
	fmt.Fprintf(w, "%s: chain OK, %d records, head %s\n", path, len(chain), head.Hash)
	fmt.Fprintf(w, "last commit: seq %d by %s (%s)\n", head.Seq, head.Requester, head.Summary)
	return nil
}

// cmdMetrics dumps the telemetry surface of a running webcom-master (or
// any process serving internal/telemetry's handler): /metrics by
// default, /traces with -traces. The same data the Prometheus scrape
// sees, for operators without a scraper at hand.
func cmdMetrics(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	addr := fs.String("addr", "", "metrics address of the running process (host:port)")
	jsonOut := fs.Bool("json", false, "fetch the JSON rendering instead of Prometheus text")
	traces := fs.Bool("traces", false, "fetch recent spans (/traces) instead of metrics")
	traceID := fs.String("trace", "", "with -traces, only spans of this trace id")
	fs.Parse(args)
	if *addr == "" {
		return fmt.Errorf("metrics requires -addr")
	}
	url := "http://" + *addr + "/metrics"
	if *traces {
		url = "http://" + *addr + "/traces"
		if *traceID != "" {
			url += "?trace=" + *traceID
		}
	} else if *jsonOut {
		url += "?format=json"
	}
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	_, err = io.Copy(os.Stdout, resp.Body)
	return err
}

// cmdCheck decides an authorisation question through the authz engine:
// the credential set is admitted into a session (signatures verified
// once) and the decision printed, with its full trace under -trace.
// Exit code 0 = granted, 3 = denied.
func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	policyPath := fs.String("policy", "", "KeyNote policy file")
	credsPath := fs.String("creds", "", "KeyNote credentials file (optional)")
	authorizer := fs.String("authorizer", "", "requesting principal (name or key)")
	keyDir := fs.String("keys", "", "directory of key files for name resolution")
	trace := fs.Bool("trace", false, "print the full decision trace")
	interpret := fs.Bool("interpret", false, "decide through the tree-walking interpreter instead of the compiled decision DAG")
	var attrs mapFlags
	fs.Var(&attrs, "attr", "action attribute name=value (repeatable)")
	fs.Parse(args)
	if *policyPath == "" || *authorizer == "" {
		return fmt.Errorf("check requires -policy and -authorizer")
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
	ks, err := loadKeyDir(*keyDir)
	if err != nil {
		return err
	}
	chk, err := keynote.NewChecker(policy, keynote.WithResolver(ks))
	if err != nil {
		return err
	}
	q := keynote.Query{Authorizers: []string{*authorizer}, Attributes: attrs.m}
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
	if *trace {
		fmt.Print(d.Explain())
		for _, sp := range tr.Spans() {
			fmt.Printf("  span %-14s %v\n", sp.Name, sp.Duration())
		}
	} else if d.Allowed {
		fmt.Println("GRANT")
	} else {
		fmt.Println("DENY")
	}
	if !d.Allowed {
		os.Exit(3)
	}
	return nil
}

// cmdRemoteExtract pulls the current policy from a running KeyCOM
// service (Section 4.2 comprehension across sites): the requester signs
// an extract request, optionally attaching credentials that delegate the
// "extract" right.
func cmdRemoteExtract(args []string) error {
	fs := flag.NewFlagSet("remote-extract", flag.ExitOnError)
	addr := fs.String("addr", "", "KeyCOM service address")
	keyPath := fs.String("key", "", "requester key file (private)")
	credsPath := fs.String("creds", "", "credential file delegating the extract right (optional)")
	fs.Parse(args)
	if *addr == "" || *keyPath == "" {
		return fmt.Errorf("remote-extract requires -addr and -key")
	}
	kp, err := keys.LoadPrivate(*keyPath)
	if err != nil {
		return err
	}
	req := &keycom.ExtractRequest{Requester: kp.PublicID()}
	if *credsPath != "" {
		asserts, err := readAssertions(*credsPath)
		if err != nil {
			return err
		}
		for _, a := range asserts {
			req.Credentials = append(req.Credentials, a.Text())
		}
	}
	if err := req.Sign(kp); err != nil {
		return err
	}
	p, err := keycom.SubmitExtract(*addr, req)
	if err != nil {
		return err
	}
	out, err := json.Marshal(p)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func loadPolicy(path string) (*rbac.Policy, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p := rbac.NewPolicy()
	if err := json.Unmarshal(data, p); err != nil {
		return nil, err
	}
	return p, nil
}

func cmdRender(args []string) error {
	fs := flag.NewFlagSet("render", flag.ExitOnError)
	in := fs.String("in", "", "policy JSON file")
	fs.Parse(args)
	p, err := loadPolicy(*in)
	if err != nil {
		return err
	}
	fmt.Print(p.String())
	return nil
}

func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	in := fs.String("in", "", "policy JSON file")
	fs.Parse(args)
	p, err := loadPolicy(*in)
	if err != nil {
		return err
	}
	warnings := p.Validate()
	for _, w := range warnings {
		fmt.Println("warning:", w)
	}
	fmt.Printf("%d RolePerm + %d UserRole rows, %d warnings\n",
		len(p.RolePerms()), len(p.UserRoles()), len(warnings))
	return nil
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	oldPath := fs.String("old", "", "old policy JSON")
	newPath := fs.String("new", "", "new policy JSON")
	fs.Parse(args)
	oldP, err := loadPolicy(*oldPath)
	if err != nil {
		return err
	}
	newP, err := loadPolicy(*newPath)
	if err != nil {
		return err
	}
	d := newP.DiffFrom(oldP)
	if d.Empty() {
		fmt.Println("policies are identical")
		return nil
	}
	fmt.Print(d.String())
	return nil
}

func cmdEncode(args []string) error {
	fs := flag.NewFlagSet("encode", flag.ExitOnError)
	in := fs.String("in", "", "policy JSON file")
	adminPath := fs.String("admin", "", "administration key file (private)")
	keyDir := fs.String("keys", "", "directory for per-user key files (created)")
	outDir := fs.String("out", ".", "output directory for policy.kn and creds.kn")
	seed := fs.String("seed", "", "deterministic user-key seed (testing only)")
	fs.Parse(args)
	if *in == "" || *adminPath == "" {
		return fmt.Errorf("encode requires -in and -admin")
	}
	p, err := loadPolicy(*in)
	if err != nil {
		return err
	}
	admin, err := keys.LoadPrivate(*adminPath)
	if err != nil {
		return err
	}

	resolver := func(u rbac.User) (string, error) {
		name := "K" + strings.ToLower(string(u))
		kp, err := keys.New(name, *seed)
		if err != nil {
			return "", err
		}
		if *keyDir != "" {
			if err := os.MkdirAll(*keyDir, 0o700); err != nil {
				return "", err
			}
			path := filepath.Join(*keyDir, name+".key")
			if _, err := os.Stat(path); err == nil {
				existing, err := keys.Load(path)
				if err != nil {
					return "", err
				}
				return existing.PublicID(), nil
			}
			if err := kp.Save(path, true); err != nil {
				return "", err
			}
		}
		return kp.PublicID(), nil
	}

	opt := translate.Options{AdminKey: admin.PublicID()}
	enc, err := translate.EncodeRBAC(p, resolver, opt)
	if err != nil {
		return err
	}
	if err := enc.SignAll(admin); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(*outDir, "policy.kn"),
		[]byte(enc.Policy.Text()), 0o644); err != nil {
		return err
	}
	var creds strings.Builder
	for i, c := range enc.Credentials {
		if i > 0 {
			creds.WriteString("\n")
		}
		creds.WriteString(c.Text())
	}
	if err := os.WriteFile(filepath.Join(*outDir, "creds.kn"),
		[]byte(creds.String()), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote policy.kn (1 assertion) and creds.kn (%d credentials) to %s\n",
		len(enc.Credentials), *outDir)
	return nil
}

func cmdDecode(args []string) error {
	fs := flag.NewFlagSet("decode", flag.ExitOnError)
	policyPath := fs.String("policy", "", "KeyNote policy file")
	credsPath := fs.String("creds", "", "KeyNote credentials file")
	keyDir := fs.String("keys", "", "directory of key files to map keys back to users")
	adminID := fs.String("admin-id", "", "admin principal (default: from policy licensee)")
	fs.Parse(args)
	if *policyPath == "" {
		return fmt.Errorf("decode requires -policy")
	}
	policies, err := readAssertions(*policyPath)
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
	ks, err := loadKeyDir(*keyDir)
	if err != nil {
		return err
	}
	opt := translate.Options{}
	if *adminID != "" {
		opt.AdminKey = *adminID
	} else if len(policies) > 0 && len(policies[0].LicenseePrincipals()) == 1 {
		opt.AdminKey = policies[0].LicenseePrincipals()[0]
	}
	userOf := func(principal string) (rbac.User, error) {
		name := ks.NameFor(principal)
		if strings.HasPrefix(name, "K") && !keys.IsPublicID(name) {
			return rbac.User(strings.ToUpper(name[1:2]) + name[2:]), nil
		}
		return rbac.User(name), nil
	}
	p, skipped, err := translate.DecodeRBAC(policies, creds, userOf, opt)
	if err != nil {
		return err
	}
	out, err := json.Marshal(p)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if len(skipped) > 0 {
		fmt.Fprintf(os.Stderr, "note: %d credentials skipped (onward delegations, not role memberships)\n", len(skipped))
	}
	return nil
}

// loadKeyDir builds a keystore from every loadable key file in dir; an
// empty dir yields an empty store.
func loadKeyDir(dir string) (*keys.KeyStore, error) {
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
		kp, err := keys.Load(filepath.Join(dir, e.Name()))
		if err == nil {
			ks.Add(kp)
		}
	}
	return ks, nil
}

// cmdLint runs the static analyser over a KeyNote credential set. It
// returns the report (the caller maps it to the process exit code) and
// writes the rendered findings to w.
func cmdLint(args []string, w io.Writer) (*policylint.Report, error) {
	fs := flag.NewFlagSet("lint", flag.ExitOnError)
	policyPath := fs.String("policy", "", "KeyNote policy file")
	credsPath := fs.String("creds", "", "KeyNote credentials file")
	rbacPath := fs.String("rbac", "", "RBAC policy JSON supplying the catalogue vocabulary")
	appDomain := fs.String("app-domain", "WebCom", "allowed app_domain value for the vocabulary check")
	keyDir := fs.String("keys", "", "directory of key files for principal resolution and signature checks")
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	skipSig := fs.Bool("skip-sig", false, "skip the signature check (PL008)")
	now := fs.String("now", "", "current date for the expiry check (PL009), e.g. 20040101")
	fs.Parse(args)
	if *policyPath == "" && *credsPath == "" {
		return nil, fmt.Errorf("lint requires -policy and/or -creds")
	}

	var srcs []policylint.Source
	for _, path := range []string{*policyPath, *credsPath} {
		if path == "" {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		fileSrcs, err := policylint.ParseSources(path, string(data))
		if err != nil {
			return nil, err
		}
		srcs = append(srcs, fileSrcs...)
	}

	opt := policylint.Options{SkipSignatures: *skipSig, Now: *now}
	if *rbacPath != "" {
		p, err := loadPolicy(*rbacPath)
		if err != nil {
			return nil, err
		}
		opt.Vocabulary = policylint.FromPolicy(p, *appDomain)
	}
	if *keyDir != "" {
		ks, err := loadKeyDir(*keyDir)
		if err != nil {
			return nil, err
		}
		opt.Resolver = ks
	}

	rep := policylint.LintSources(srcs, opt)
	if *jsonOut {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(w, string(data))
	} else {
		fmt.Fprint(w, rep.String())
	}
	return rep, nil
}

func cmdMigrate(args []string) error {
	fs := flag.NewFlagSet("migrate", flag.ExitOnError)
	in := fs.String("in", "", "source policy JSON")
	vocab := fs.String("vocab", "", "comma-separated target permission vocabulary")
	minScore := fs.Float64("min-score", 0.5, "minimum similarity for permission mapping")
	var domainMaps mapFlags
	fs.Var(&domainMaps, "map", "domain rename old=new (repeatable)")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("migrate requires -in")
	}
	p, err := loadPolicy(*in)
	if err != nil {
		return err
	}
	opt := translate.MigrationOptions{MinScore: *minScore}
	if len(domainMaps.m) > 0 {
		opt.DomainMap = make(map[rbac.Domain]rbac.Domain)
		for k, v := range domainMaps.m {
			opt.DomainMap[rbac.Domain(k)] = rbac.Domain(v)
		}
	}
	if *vocab != "" {
		for _, v := range strings.Split(*vocab, ",") {
			opt.TargetVocabulary = append(opt.TargetVocabulary, rbac.Permission(v))
		}
	}
	out, reports, lintRep, err := translate.MigrateAndLint(p, opt, nil)
	if err != nil {
		return err
	}
	for _, r := range reports {
		fmt.Fprintln(os.Stderr, "mapping:", r)
	}
	for _, f := range lintRep.Findings {
		fmt.Fprintln(os.Stderr, "lint:", f)
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// mapFlags collects repeated -map old=new flags.
type mapFlags struct{ m map[string]string }

func (f *mapFlags) String() string { return fmt.Sprint(f.m) }

func (f *mapFlags) Set(s string) error {
	eq := strings.Index(s, "=")
	if eq <= 0 {
		return fmt.Errorf("mapping %q is not old=new", s)
	}
	if f.m == nil {
		f.m = make(map[string]string)
	}
	f.m[s[:eq]] = s[eq+1:]
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
