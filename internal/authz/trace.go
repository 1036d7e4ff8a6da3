package authz

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"securewebcom/internal/keynote"
)

// Verdict strings used in layer traces, matching internal/stack's
// Verdict.String() values so audit lines read uniformly.
const (
	VerdictGrant   = "grant"
	VerdictDeny    = "deny"
	VerdictAbstain = "abstain"
)

// Trace is the structured account of one authorisation decision. The
// stack fills Layers with every mediation layer's verdict; single-layer
// consumers (WebCom scheduling, KeyCOM administration) carry one entry.
type Trace struct {
	// Fingerprint identifies the credential session the decision ran
	// under.
	Fingerprint string
	// CacheHit reports whether the decision came from the cache.
	CacheHit bool
	// Elapsed is the wall time of the computation that produced this
	// decision. A cache hit shares the cached decision, so it carries the
	// time of the computation it was cached from; the lookup's own time
	// is observed in the authz.decide.latency histogram.
	Elapsed time.Duration
	// Layers holds per-layer verdicts, highest layer first.
	Layers []LayerTrace
	// Chain is the granting delegation chain, POLICY first; empty on
	// denial.
	Chain []string
	// Rejected lists credentials refused at admission or evaluation.
	Rejected []keynote.RejectedCredential
	// PrincipalValues is the final fixpoint valuation, for explanation.
	PrincipalValues map[string]string
}

// LayerTrace is one mediation layer's verdict.
type LayerTrace struct {
	Layer   string
	Verdict string
	Err     string
	Elapsed time.Duration
}

// DeniedBy returns the name of the first layer that denied, or "".
func (t *Trace) DeniedBy() string {
	for _, l := range t.Layers {
		if l.Verdict == VerdictDeny {
			return l.Layer
		}
	}
	return ""
}

// String renders the trace deterministically for logs and -trace output.
func (t *Trace) String() string {
	var b strings.Builder
	for _, l := range t.Layers {
		fmt.Fprintf(&b, "  %-14s %s", l.Layer, l.Verdict)
		if l.Err != "" {
			fmt.Fprintf(&b, " (%s)", l.Err)
		}
		b.WriteByte('\n')
	}
	if len(t.Chain) > 0 {
		parts := make([]string, len(t.Chain))
		for i, p := range t.Chain {
			parts[i] = abbrev(p)
		}
		fmt.Fprintf(&b, "  chain: %s\n", strings.Join(parts, " <- "))
	}
	if len(t.PrincipalValues) > 0 {
		names := make([]string, 0, len(t.PrincipalValues))
		for p := range t.PrincipalValues {
			names = append(names, p)
		}
		sort.Strings(names)
		for _, p := range names {
			fmt.Fprintf(&b, "  %-40s -> %s\n", abbrev(p), t.PrincipalValues[p])
		}
	}
	rej := append([]keynote.RejectedCredential(nil), t.Rejected...)
	sort.Slice(rej, func(i, j int) bool {
		if rej[i].Authorizer != rej[j].Authorizer {
			return rej[i].Authorizer < rej[j].Authorizer
		}
		return rej[i].Reason < rej[j].Reason
	})
	for _, r := range rej {
		fmt.Fprintf(&b, "  rejected %s: %s\n", abbrev(r.Authorizer), r.Reason)
	}
	src := "computed"
	if t.CacheHit {
		src = "cached"
	}
	fmt.Fprintf(&b, "  [%s in %v, session %s]\n", src, t.Elapsed, t.Fingerprint)
	return b.String()
}

func abbrev(p string) string {
	if len(p) > 40 {
		return p[:37] + "..."
	}
	return p
}

// Decision is one authorisation outcome with its explanation.
type Decision struct {
	// Allowed reports whether the request reached _MAX_TRUST.
	Allowed bool
	// Value is the compliance value reached.
	Value string
	// Result is the underlying KeyNote result.
	Result keynote.Result
	// Trace explains the decision.
	Trace Trace
}

// Explain renders the decision with its trace.
func (d *Decision) Explain() string {
	verdict := "DENY"
	if d.Allowed {
		verdict = "GRANT"
	}
	return fmt.Sprintf("%s (compliance value %s)\n%s", verdict, d.Value, d.Trace.String())
}

// AuditEntry is one recorded decision, with the peer and operation it
// mediated.
type AuditEntry struct {
	Time     time.Time
	Peer     string // principal or client name the decision was about
	Op       string // operation / action decided
	Decision *Decision
}

func (e AuditEntry) String() string {
	return fmt.Sprintf("%s op=%s peer=%s\n%s",
		map[bool]string{true: "GRANT", false: "DENY"}[e.Decision.Allowed],
		e.Op, abbrev(e.Peer), e.Decision.Trace.String())
}

// AuditLog is a bounded ring of recent decisions. WebCom masters and
// clients record denials here so a refused task can always be explained
// after the fact; a Sink mirrors entries to external logging (the
// -trace flag of the binaries).
type AuditLog struct {
	mu      sync.Mutex
	cap     int
	entries []AuditEntry
	sink    func(AuditEntry)
}

// NewAuditLog returns a log retaining the last capacity entries.
func NewAuditLog(capacity int) *AuditLog {
	if capacity <= 0 {
		capacity = 128
	}
	return &AuditLog{cap: capacity}
}

// SetSink installs a mirror function invoked (synchronously) on every
// Record.
func (l *AuditLog) SetSink(fn func(AuditEntry)) {
	l.mu.Lock()
	l.sink = fn
	l.mu.Unlock()
}

// Record appends an entry, evicting the oldest past capacity.
func (l *AuditLog) Record(peer, op string, d *Decision) {
	e := AuditEntry{Time: time.Now(), Peer: peer, Op: op, Decision: d}
	l.mu.Lock()
	l.entries = append(l.entries, e)
	if len(l.entries) > l.cap {
		l.entries = append(l.entries[:0], l.entries[len(l.entries)-l.cap:]...)
	}
	sink := l.sink
	l.mu.Unlock()
	if sink != nil {
		sink(e)
	}
}

// Entries returns a copy of the recorded entries, oldest first.
func (l *AuditLog) Entries() []AuditEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]AuditEntry(nil), l.entries...)
}

// Last returns the most recent entry.
func (l *AuditLog) Last() (AuditEntry, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.entries) == 0 {
		return AuditEntry{}, false
	}
	return l.entries[len(l.entries)-1], true
}
