// Package faultnet is a reusable fault-injection harness for network
// code: it wraps net.Conn and net.Listener values and injects scripted
// transport faults so chaos tests can drive a protocol implementation
// through the failure modes real networks exhibit.
//
// Fault classes (per connection, drawn from a seeded deterministic RNG
// so a failing chaos run is reproducible from its seed):
//
//   - Latency: every read and write is delayed by a per-connection
//     amount drawn up to MaxLatency;
//   - Drop: the connection is abruptly closed once a scripted number of
//     bytes has crossed it (mid-message TCP reset);
//   - Partition: after a scripted byte count the connection silently
//     stops carrying data in both directions but stays open — reads see
//     nothing, writes appear to succeed (the classic half-dead link that
//     only deadlines or heartbeats can detect);
//   - Stall: a partition from byte zero — the peer is accepted (or the
//     dial succeeds) and then nothing is ever delivered, pinning any
//     handshake that lacks a deadline;
//   - Corrupt: once the scripted byte count is reached, outbound frames
//     are damaged (the first byte of each write is replaced with an
//     invalid byte), so the peer's decoder fails mid-stream.
//
// An Injector is created from a Config whose class weights say what
// fraction of wrapped connections suffer each fault. Stats counts what
// was actually injected, so tests can assert a minimum fault rate rather
// than hope the dice were unkind.
package faultnet

import (
	"math/rand"
	"net"
	"sync"
	"time"

	"securewebcom/internal/telemetry"
)

// Class is an injectable fault class.
type Class int

// The fault classes. None means the connection behaves normally.
const (
	None Class = iota
	Latency
	Drop
	Partition
	Stall
	Corrupt
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case Latency:
		return "latency"
	case Drop:
		return "drop"
	case Partition:
		return "partition"
	case Stall:
		return "stall"
	case Corrupt:
		return "corrupt"
	}
	return "none"
}

// Direction tells an Observe hook which way bytes were travelling.
type Direction int

// Traffic directions relative to the wrapped connection.
const (
	Read Direction = iota
	Write
)

// Config scripts an Injector.
type Config struct {
	// Seed seeds the deterministic RNG. The same seed and wrap order
	// reproduce the same per-connection fault assignments.
	Seed int64

	// Per-class probabilities in [0,1]; their sum must be <= 1. The
	// remainder of the probability mass yields healthy connections.
	PLatency, PDrop, PPartition, PStall, PCorrupt float64

	// MaxLatency caps the per-operation delay of Latency connections.
	// Default 5ms.
	MaxLatency time.Duration

	// TriggerBytes is the mean byte offset at which Drop, Partition and
	// Corrupt faults trigger; the actual offset is drawn uniformly from
	// [1, 2*TriggerBytes). Default 512.
	TriggerBytes int

	// Observe, when non-nil, is called with every buffer before faults
	// are applied to it — a tap for tests that count protocol frames.
	// It must be safe for concurrent use.
	Observe func(dir Direction, b []byte)

	// Tel, when non-nil, mirrors the injection counters into a telemetry
	// registry: faultnet.wrapped, faultnet.class.<name> per assigned
	// class, faultnet.swallowed.bytes, faultnet.corrupted.writes and
	// faultnet.dropped.conns — so a chaos suite can assert fault rates
	// from the same /metrics surface production reads.
	Tel *telemetry.Registry
}

// Stats counts injected faults. All fields are cumulative.
type Stats struct {
	// Wrapped is the number of connections wrapped.
	Wrapped int
	// ByClass counts wrapped connections per assigned fault class.
	ByClass map[Class]int
	// SwallowedBytes counts bytes silently discarded by partitions.
	SwallowedBytes int64
	// CorruptedWrites counts writes damaged by Corrupt connections.
	CorruptedWrites int64
	// DroppedConns counts connections torn down by Drop faults.
	DroppedConns int
}

// FaultRate is the fraction of wrapped connections assigned any fault.
func (s Stats) FaultRate() float64 {
	if s.Wrapped == 0 {
		return 0
	}
	return float64(s.Wrapped-s.ByClass[None]) / float64(s.Wrapped)
}

// Injector wraps connections and listeners according to its Config.
type Injector struct {
	cfg Config

	mu    sync.Mutex
	rng   *rand.Rand
	stats Stats
}

// New creates an Injector with a deterministic RNG seeded from cfg.Seed.
func New(cfg Config) *Injector {
	if cfg.MaxLatency <= 0 {
		cfg.MaxLatency = 5 * time.Millisecond
	}
	if cfg.TriggerBytes <= 0 {
		cfg.TriggerBytes = 512
	}
	return &Injector{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Stats returns a snapshot of the injection counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	s := in.stats
	s.ByClass = make(map[Class]int, len(in.stats.ByClass))
	for k, v := range in.stats.ByClass {
		s.ByClass[k] = v
	}
	return s
}

// draw assigns a fault class and trigger offset for one new connection.
func (in *Injector) draw() (Class, int64, time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	r := in.rng.Float64()
	class := None
	for _, c := range []struct {
		p     float64
		class Class
	}{
		{in.cfg.PLatency, Latency},
		{in.cfg.PDrop, Drop},
		{in.cfg.PPartition, Partition},
		{in.cfg.PStall, Stall},
		{in.cfg.PCorrupt, Corrupt},
	} {
		if r < c.p {
			class = c.class
			break
		}
		r -= c.p
	}
	trigger := int64(1 + in.rng.Intn(2*in.cfg.TriggerBytes-1))
	if class == Stall {
		trigger = 0
	}
	delay := time.Duration(in.rng.Int63n(int64(in.cfg.MaxLatency)))
	in.stats.Wrapped++
	if in.stats.ByClass == nil {
		in.stats.ByClass = make(map[Class]int)
	}
	in.stats.ByClass[class]++
	in.cfg.Tel.Counter("faultnet.wrapped").Inc()
	in.cfg.Tel.Counter("faultnet.class." + class.String()).Inc()
	return class, trigger, delay
}

// Conn wraps c with a fault drawn from the injector's script.
func (in *Injector) Conn(c net.Conn) *Conn {
	class, trigger, delay := in.draw()
	return &Conn{
		Conn:    c,
		in:      in,
		class:   class,
		trigger: trigger,
		delay:   delay,
	}
}

// Listener wraps ln so every accepted connection is wrapped by Conn.
func (in *Injector) Listener(ln net.Listener) net.Listener {
	return &listener{Listener: ln, in: in}
}

type listener struct {
	net.Listener
	in *Injector
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.in.Conn(c), nil
}

// Conn is a net.Conn carrying one scripted fault. Deadlines set on the
// wrapper reach the underlying connection, so deadline-based failure
// detection keeps working — that is the point: partitions block reads
// until a deadline (or close) rescues the caller.
type Conn struct {
	net.Conn
	in    *Injector
	class Class
	delay time.Duration

	mu          sync.Mutex
	trigger     int64 // byte offset at which the fault engages
	transferred int64
	engaged     bool
}

// Class returns the fault class assigned to this connection.
func (c *Conn) Class() Class {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.class
}

// ForcePartition makes the connection silently black-hole all further
// traffic regardless of its assigned class — a scripted "cut the cable
// now" control for deterministic tests.
func (c *Conn) ForcePartition() {
	c.mu.Lock()
	c.class = Partition
	c.engaged = true
	c.mu.Unlock()
}

// account adds n transferred bytes and reports whether the fault is
// (now) engaged.
func (c *Conn) account(n int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.transferred += int64(n)
	if !c.engaged && c.class != None && c.transferred >= c.trigger {
		c.engaged = true
	}
	return c.engaged
}

func (c *Conn) engagedNow() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.engaged || (c.class != None && c.transferred >= c.trigger)
}

func (c *Conn) Read(p []byte) (int, error) {
	if c.Class() == Latency {
		time.Sleep(c.delay)
	}
	for {
		n, err := c.Conn.Read(p)
		if n > 0 && c.in.cfg.Observe != nil {
			c.in.cfg.Observe(Read, p[:n])
		}
		if err != nil {
			return n, err
		}
		engaged := c.account(n)
		switch c.Class() {
		case Drop:
			if engaged {
				c.in.countDrop()
				c.Conn.Close()
				return 0, net.ErrClosed
			}
		case Partition, Stall:
			if engaged {
				// Swallow the bytes and keep reading: the caller blocks
				// exactly as it would on a silent link, and any read
				// deadline set on the wrapper still fires via the
				// underlying Read.
				c.in.countSwallowed(int64(n))
				continue
			}
		}
		return n, nil
	}
}

func (c *Conn) Write(p []byte) (int, error) {
	if c.Class() == Latency {
		time.Sleep(c.delay)
	}
	if c.in.cfg.Observe != nil {
		c.in.cfg.Observe(Write, p)
	}
	engaged := c.engagedNow()
	switch c.Class() {
	case Drop:
		if engaged {
			c.in.countDrop()
			c.Conn.Close()
			return 0, net.ErrClosed
		}
	case Partition, Stall:
		if engaged {
			// Pretend success: the bytes vanish, as on a link whose far
			// end is unreachable but whose local buffers still accept.
			c.in.countSwallowed(int64(len(p)))
			c.account(len(p))
			return len(p), nil
		}
	case Corrupt:
		if engaged && len(p) > 0 {
			damaged := make([]byte, len(p))
			copy(damaged, p)
			// 0xFF is never valid UTF-8, so any text or JSON framing on
			// the peer fails fast and unambiguously.
			damaged[0] = 0xFF
			c.in.countCorrupted()
			n, err := c.Conn.Write(damaged)
			c.account(n)
			return n, err
		}
	}
	n, err := c.Conn.Write(p)
	c.account(n)
	return n, err
}

func (in *Injector) countSwallowed(n int64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.SwallowedBytes += n
	in.cfg.Tel.Counter("faultnet.swallowed.bytes").Add(n)
}

func (in *Injector) countCorrupted() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.CorruptedWrites++
	in.cfg.Tel.Counter("faultnet.corrupted.writes").Inc()
}

func (in *Injector) countDrop() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.DroppedConns++
	in.cfg.Tel.Counter("faultnet.dropped.conns").Inc()
}
