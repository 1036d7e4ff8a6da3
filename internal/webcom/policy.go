package webcom

import (
	"context"
	"math/rand"
	"time"
)

// RetryPolicy configures how the master survives client faults: retry
// counts, backoff, per-dispatch deadlines, the per-client circuit
// breaker and in-flight bounds. The zero value means "sane defaults",
// so existing callers keep working untouched.
type RetryPolicy struct {
	// MaxAttempts bounds scheduling attempts per task, counting rounds
	// spent waiting for a client to become available. Default 3.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each further
	// retry doubles it. Default 25ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth. Default 2s.
	MaxBackoff time.Duration
	// Jitter spreads retries by multiplying each backoff by a uniform
	// factor in [1-Jitter, 1+Jitter], so a fleet of stalled tasks does
	// not retry in lockstep. Default 0.5; negative disables jitter.
	Jitter float64
	// DispatchTimeout bounds one dispatch end to end — waiting for an
	// in-flight slot, sending, and awaiting the result. A client that
	// accepts a task and never answers is a fault, not a wait. Default
	// 30s.
	DispatchTimeout time.Duration
	// FailureThreshold is the number of consecutive transport failures
	// after which a client's circuit breaker opens and the client is
	// quarantined. Default 3.
	FailureThreshold int
	// Quarantine is how long an open breaker refuses the client before
	// letting a single probe task through; the probe's outcome decides
	// between readmission and renewed quarantine. Default 2s.
	Quarantine time.Duration
	// MaxInFlight bounds concurrently dispatched tasks per client;
	// further dispatches block (backpressure) until a slot frees or the
	// dispatch deadline fires. Default 32.
	MaxInFlight int
	// DelegateTimeout bounds one condensed-subgraph delegation to a
	// sub-master end to end. A delegated subgraph is many tasks, so it
	// gets a longer leash than a single dispatch. Default
	// 4 x DispatchTimeout.
	DelegateTimeout time.Duration
	// SpeculateAfter, as a fraction of DelegateTimeout in (0, 1], arms
	// speculative re-delegation: when a delegated subgraph has streamed
	// no progress frame by that point, the master re-delegates it to the
	// cheapest idle sibling sub-master (work stealing) and the first
	// closing result wins; the straggler is cancelled on the wire.
	// 0 (the default) disables speculation. Values above 1 clamp to 1.
	SpeculateAfter float64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 25 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 2 * time.Second
	}
	if p.Jitter == 0 {
		p.Jitter = 0.5
	}
	if p.DispatchTimeout <= 0 {
		p.DispatchTimeout = 30 * time.Second
	}
	if p.FailureThreshold <= 0 {
		p.FailureThreshold = 3
	}
	if p.Quarantine <= 0 {
		p.Quarantine = 2 * time.Second
	}
	if p.MaxInFlight <= 0 {
		p.MaxInFlight = 32
	}
	if p.DelegateTimeout <= 0 {
		p.DelegateTimeout = 4 * p.DispatchTimeout
	}
	if p.SpeculateAfter < 0 {
		p.SpeculateAfter = 0
	} else if p.SpeculateAfter > 1 {
		p.SpeculateAfter = 1
	}
	return p
}

// backoff returns the delay before retry number `retry` (0-based),
// exponentially grown from BaseBackoff, capped at MaxBackoff, jittered.
func (p RetryPolicy) backoff(retry int) time.Duration {
	d := p.BaseBackoff
	for i := 0; i < retry && d < p.MaxBackoff; i++ {
		d *= 2
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	if p.Jitter > 0 {
		f := 1 + p.Jitter*(2*rand.Float64()-1)
		d = time.Duration(float64(d) * f)
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// Liveness configures heartbeat failure detection and the handshake
// deadline. Both master and client run the same scheme: each side pings
// the other every PingInterval, answers the other's pings with pongs,
// and declares the connection dead after IdleTimeout of silence — the
// only way to notice a partitioned or stalled peer whose TCP connection
// is still nominally open. The zero value means defaults.
type Liveness struct {
	// PingInterval is the heartbeat cadence. Default 15s.
	PingInterval time.Duration
	// IdleTimeout is the silence threshold after which the peer is
	// declared dead and the connection closed. Default 45s; it should
	// comfortably exceed PingInterval.
	IdleTimeout time.Duration
	// HandshakeTimeout is the read deadline applied while the mutual
	// authentication handshake runs, so a connection that goes silent
	// after the challenge cannot pin a goroutine forever. Default 10s.
	HandshakeTimeout time.Duration
}

func (l Liveness) withDefaults() Liveness {
	if l.PingInterval <= 0 {
		l.PingInterval = 15 * time.Second
	}
	if l.IdleTimeout <= 0 {
		l.IdleTimeout = 45 * time.Second
	}
	if l.HandshakeTimeout <= 0 {
		l.HandshakeTimeout = 10 * time.Second
	}
	return l
}

// ReconnectPolicy configures client-side auto-reconnect. When Enabled,
// a client whose connection to the master dies re-dials with
// exponential backoff and re-runs the full mutual-authentication
// handshake; Wait returns only once reconnection is abandoned.
type ReconnectPolicy struct {
	// Enabled turns auto-reconnect on. Default off: a plain client
	// disconnects exactly as before.
	Enabled bool
	// MaxAttempts bounds consecutive failed redials before giving up.
	// Default 8; negative means retry forever.
	MaxAttempts int
	// BaseBackoff is the delay before the first redial, doubled per
	// consecutive failure. Default 50ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the redial backoff. Default 5s.
	MaxBackoff time.Duration
	// Jitter spreads redials as in RetryPolicy. Default 0.5.
	Jitter float64
}

func (p ReconnectPolicy) withDefaults() ReconnectPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 8
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 50 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 5 * time.Second
	}
	if p.Jitter == 0 {
		p.Jitter = 0.5
	}
	return p
}

func (p ReconnectPolicy) backoff(retry int) time.Duration {
	return RetryPolicy{BaseBackoff: p.BaseBackoff, MaxBackoff: p.MaxBackoff, Jitter: p.Jitter}.backoff(retry)
}

// sleepCtx sleeps for d unless the context ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
