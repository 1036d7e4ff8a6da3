// Package webcom implements Secure WebCom: a distributed metacomputer
// that coordinates the execution of condensed-graph applications across a
// master and a pool of clients (Figure 3 of the paper).
//
// Security follows the paper's architecture exactly:
//
//   - master and client mutually authenticate with a signed
//     challenge-response over their public keys;
//   - the master uses its KeyNote policy plus the client's presented
//     credentials to decide which operations it may schedule to that
//     client;
//   - the client symmetrically uses its own KeyNote policy plus the
//     master's credentials to decide whether the master may schedule an
//     operation to it — neither side relies on the other's good
//     behaviour;
//   - once scheduled, the operation executes against the client's local
//     middleware (CORBA/EJB/COM+) under that middleware's native
//     security, as the (Domain, Role, User) annotations from the IDE
//     dictate — the stacked architecture of Figure 10.
//
// Fault tolerance: the scheduler is built to ride through partial
// failure, not just clean disconnects. Both sides heartbeat (ping/pong)
// and declare a silent peer dead after an idle timeout, so partitioned
// or accepted-but-silent connections are detected, not just TCP resets;
// the handshake itself runs under a read deadline. Each dispatch has a
// deadline; a failed or timed-out task is rescheduled on another
// authorised client with exponential backoff and jitter, while a
// per-client circuit breaker quarantines repeatedly failing clients and
// probes them before readmission. In-flight tasks per client are
// bounded (backpressure). Clients can auto-reconnect, re-running the
// full mutual-authentication handshake; a reconnecting principal
// supersedes its own stale connection at the master. Authorisation
// denials are never retried — a denial is a policy decision, not a
// fault. See RetryPolicy, Liveness and ReconnectPolicy for knobs, and
// internal/faultnet for the chaos harness that exercises all of this.
//
// Wire plane: the handshake always speaks newline-delimited JSON, so
// any peer can join; the master's challenge offers its supported codecs
// and a client that wants one echoes it in its hello. When both sides
// agree, the connection switches to the length-prefixed binary codec
// (codec.go) immediately after the welcome, and every subsequent frame
// — schedule, delegate, result, heartbeat — rides it. Writes coalesce:
// a sender appends its encoded frame to the connection's pending buffer
// and the current flusher drains whatever has accumulated in one
// syscall, so a burst of schedule or result frames costs one write, not
// one write per message, while an idle connection still flushes
// immediately (the sender itself becomes the flusher).
package webcom

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"securewebcom/internal/telemetry"
)

// AppDomain is the KeyNote application domain for WebCom queries.
const AppDomain = "WebCom"

// rawJSON aliases json.RawMessage so the binary codec can name the type
// without importing encoding/json for anything else.
type rawJSON = json.RawMessage

// msg is the single wire message type; Type discriminates. The binary
// codec (codec.go) encodes these fields positionally — new fields must
// be appended to the end of the struct AND given the next presence bit.
type msg struct {
	Type string `json:"type"`

	// challenge / hello / welcome fields. Role distinguishes a plain
	// executing client from a sub-master ("submaster"): a client that
	// runs an embedded master and can be handed whole condensed
	// subgraphs (the hierarchical Figure 3 topology).
	//
	// Codecs (challenge) lists the wire codecs the master is willing to
	// speak besides JSON; Codec (hello, echoed in welcome) picks one.
	// Peers that predate negotiation ignore both fields and keep JSON.
	Nonce       string   `json:"nonce,omitempty"`
	Principal   string   `json:"principal,omitempty"`
	Name        string   `json:"name,omitempty"`
	Role        string   `json:"role,omitempty"`
	Sig         string   `json:"sig,omitempty"`
	Credentials []string `json:"credentials,omitempty"`
	Codecs      []string `json:"codecs,omitempty"`
	Codec       string   `json:"codec,omitempty"`

	// schedule fields. TraceID and SpanID carry the master's
	// request-scoped trace across the wire: the client parents its
	// execution spans under the master's dispatch span, giving one
	// connected chain per task across both processes.
	TaskID      uint64            `json:"task_id,omitempty"`
	Op          string            `json:"op,omitempty"`
	Args        []string          `json:"args,omitempty"`
	Annotations map[string]string `json:"annotations,omitempty"`
	TraceID     string            `json:"trace_id,omitempty"`
	SpanID      string            `json:"span_id,omitempty"`

	// delegate fields: a serialized condensed subgraph (the entry graph
	// name travels in Op, the full closure in Library), its input
	// values, and the delegation credentials the parent minted for this
	// sub-master — scoped to exactly the subgraph's operation/domain
	// vocabulary and linted (PL003/PL007) on both ends.
	Library    map[string]rawJSON `json:"library,omitempty"`
	Inputs     map[string]string  `json:"inputs,omitempty"`
	Delegation []string           `json:"delegation,omitempty"`
	// Stream asks the sub-master to emit per-node delegate_result
	// progress frames. The root sets it only when someone consumes them
	// (a progress hook, or armed speculation watching for stragglers);
	// otherwise the wing runs without per-node wire traffic.
	Stream bool `json:"stream,omitempty"`
	// LibraryRef names a closure by content hash instead of carrying its
	// bytes: once a sub-master has imported a closure, repeat
	// delegations of the same subgraph send only the 64-char hex ref.
	// A sub that no longer holds the closure answers with
	// errUnknownClosure and the parent resends the full Library.
	LibraryRef string `json:"library_ref,omitempty"`

	// result fields. Spans carry the executing tier's finished spans for
	// the task's trace back up the tree, so the root's tracer can serve
	// the complete root→sub-master→leaf chain from one /traces query.
	// Fired/Expanded propagate remote evaluation stats for delegate
	// results.
	Result   string           `json:"result,omitempty"`
	Err      string           `json:"err,omitempty"`
	Denied   bool             `json:"denied,omitempty"`
	Spans    []telemetry.Span `json:"spans,omitempty"`
	Fired    int              `json:"fired,omitempty"`
	Expanded int              `json:"expanded,omitempty"`

	// streaming delegate fields. A sub-master working through a
	// delegated subgraph emits one delegate_result frame per completed
	// node — Node names the finished graph node, Result carries its
	// value — before the single closing result frame. The root treats
	// the stream as advisory progress (straggler detection, early
	// speculation disarm); the closing frame stays authoritative.
	Node string `json:"node,omitempty"`
}

// Message types.
const (
	msgChallenge = "challenge"
	msgHello     = "hello"
	msgWelcome   = "welcome"
	msgReject    = "reject"
	msgSchedule  = "schedule"
	msgDelegate  = "delegate"
	msgResult    = "result"
	msgPing      = "ping"
	msgPong      = "pong"
	// msgDelegateResult is an incremental per-node progress frame a
	// sub-master streams while executing a delegated subgraph; the
	// delegation still ends with one closing msgResult frame.
	msgDelegateResult = "delegate_result"
	// msgDelegateCancel withdraws a delegation: the root sends it when a
	// speculative re-delegation of the same subgraph has already won, so
	// the losing sub-master stops firing nodes it no longer needs to run.
	msgDelegateCancel = "delegate_cancel"
)

// roleSubmaster is the hello Role of a client running an embedded
// master; only such clients are offered whole condensed subgraphs.
const roleSubmaster = "submaster"

// Codec mode names accepted by Master.Codec / Client.Codec and the
// CLIs' -codec flag.
const (
	// CodecAuto (the empty string) negotiates binary/1 and falls back
	// to JSON when the peer does not offer or accept it.
	CodecAuto = ""
	// CodecBinary is an explicit spelling of the default negotiation.
	CodecBinary = "binary"
	// CodecJSON pins the connection to the JSON fallback: the master
	// offers no codecs, the client echoes none.
	CodecJSON = "json"
)

// msgPool recycles wire messages on the hot dispatch/result paths. A
// recv decodes into a pooled message; whoever consumes it calls
// msgRelease once no field is needed any more (retained strings stay
// valid — only the struct itself is recycled).
var msgPool = sync.Pool{New: func() any { return new(msg) }}

func msgAcquire() *msg { return msgPool.Get().(*msg) }

func msgRelease(m *msg) {
	if m == nil {
		return
	}
	// Keep the Args/Credentials/Delegation backing arrays — stringsInto
	// reuses them — and drop everything else.
	*m = msg{
		Args:        m.Args[:0],
		Credentials: m.Credentials[:0],
		Delegation:  m.Delegation[:0],
	}
	msgPool.Put(m)
}

// conn wraps a net.Conn with codec-switchable framing, coalesced
// writes, and a last-received timestamp for heartbeat liveness: any
// inbound message (pongs included) counts as proof of life.
//
// Reading is single-goroutine (the read loops); writing is multi-
// goroutine behind wmu with the leader-flusher pattern: the first
// sender to find no flush in progress drains the pending buffer itself,
// and everyone who arrives while it writes just appends — their frames
// leave in the leader's next syscall. Under load this batches many
// frames per write; when idle it degenerates to one immediate write per
// message, so batching never costs latency.
type conn struct {
	raw net.Conn
	br  *bufio.Reader

	binary  atomic.Bool  // negotiated codec: false = JSON lines
	in      *internTable // reader-side string intern (no lock: one reader)
	readBuf []byte       // reusable frame/line buffer (reader-owned)

	wmu      sync.Mutex
	wbuf     []byte // pending encoded frames
	spare    []byte // ping-pong buffer for the flusher swap
	scratch  []byte // binary payload staging (written under wmu)
	flushing bool
	werr     error
	// writeTimeout bounds each flush (the link's IdleTimeout): a peer
	// that stops reading fails the flusher instead of blocking it, and
	// everyone queued behind it, until the heartbeat notices. Zero
	// means no bound.
	writeTimeout time.Duration

	lastRecv atomic.Int64 // unix nanos of the last successful recv
}

func newConn(c net.Conn, writeTimeout time.Duration) *conn {
	cn := &conn{
		raw:          c,
		br:           bufio.NewReaderSize(c, 32<<10),
		in:           newInternTable(),
		wbuf:         make([]byte, 0, 4<<10),
		spare:        make([]byte, 0, 4<<10),
		writeTimeout: writeTimeout,
	}
	cn.lastRecv.Store(time.Now().UnixNano())
	return cn
}

// setBinary switches the connection to the binary codec. Both sides
// call it at the same protocol point (immediately after welcome), so no
// in-flight frame ever straddles the switch.
func (c *conn) setBinary() { c.binary.Store(true) }

// isBinary reports whether the negotiated codec is binary/1.
func (c *conn) isBinary() bool { return c.binary.Load() }

// send encodes m and queues it for writing, flushing the connection's
// pending frames if no other sender is already doing so. A nil return
// means the frame was written or handed to the active flusher; once any
// write fails the error is sticky and every subsequent send reports it.
// A failed write may leave a partial frame on the wire, so it also
// closes the connection, which ends the peer's read loop.
func (c *conn) send(m *msg) error {
	c.wmu.Lock()
	if c.werr != nil {
		err := c.werr
		c.wmu.Unlock()
		return err
	}
	if c.binary.Load() {
		var err error
		c.scratch, err = appendMsgBinary(c.scratch[:0], m)
		if err != nil {
			c.wmu.Unlock()
			return err
		}
		c.wbuf = binary.AppendUvarint(c.wbuf, uint64(len(c.scratch)))
		c.wbuf = append(c.wbuf, c.scratch...)
	} else {
		b, err := json.Marshal(m)
		if err != nil {
			c.wmu.Unlock()
			return err
		}
		c.wbuf = append(c.wbuf, b...)
		c.wbuf = append(c.wbuf, '\n')
	}
	if c.flushing {
		// The active flusher will carry this frame out in its next
		// write; returning now is what coalesces bursts into one
		// syscall.
		c.wmu.Unlock()
		return nil
	}
	c.flushing = true
	for c.werr == nil && len(c.wbuf) > 0 {
		buf := c.wbuf
		c.wbuf = c.spare[:0]
		c.spare = nil
		c.wmu.Unlock()
		if c.writeTimeout > 0 {
			c.raw.SetWriteDeadline(time.Now().Add(c.writeTimeout))
		}
		_, werr := c.raw.Write(buf)
		c.wmu.Lock()
		c.spare = buf[:0]
		if werr != nil {
			c.werr = werr
			c.raw.Close()
		}
	}
	c.flushing = false
	err := c.werr
	c.wmu.Unlock()
	return err
}

// recv reads and decodes one message into a pooled msg. The caller owns
// the result and must msgRelease it when finished (strings extracted
// from it remain valid afterwards). Must only be called from one
// goroutine at a time.
func (c *conn) recv() (*msg, error) {
	m := msgAcquire()
	var err error
	if c.binary.Load() {
		err = c.recvBinary(m)
	} else {
		err = c.recvJSON(m)
	}
	if err != nil {
		msgRelease(m)
		return nil, err
	}
	c.lastRecv.Store(time.Now().UnixNano())
	return m, nil
}

func (c *conn) recvBinary(m *msg) error {
	n, err := binary.ReadUvarint(c.br)
	if err != nil {
		return err
	}
	if n > maxFrame {
		return fmt.Errorf("webcom: frame of %d bytes exceeds limit", n)
	}
	if uint64(cap(c.readBuf)) < n {
		c.readBuf = make([]byte, n)
	}
	buf := c.readBuf[:n]
	if _, err := io.ReadFull(c.br, buf); err != nil {
		return err
	}
	return decodeMsgBinary(buf, m, c.in)
}

func (c *conn) recvJSON(m *msg) error {
	line, err := c.readLine()
	if err != nil {
		return err
	}
	return json.Unmarshal(line, m)
}

// readLine reads one newline-delimited message, spilling into the
// reusable buffer only when a message exceeds the bufio window.
func (c *conn) readLine() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err == nil {
		return line, nil
	}
	if !errors.Is(err, bufio.ErrBufferFull) {
		return nil, err
	}
	buf := append(c.readBuf[:0], line...)
	for {
		line, err = c.br.ReadSlice('\n')
		buf = append(buf, line...)
		if err == nil {
			c.readBuf = buf
			return buf, nil
		}
		if !errors.Is(err, bufio.ErrBufferFull) {
			return nil, err
		}
	}
}

// idle reports how long the connection has been silent.
func (c *conn) idle() time.Duration {
	return time.Since(time.Unix(0, c.lastRecv.Load()))
}

// setHandshakeDeadline arms a read deadline for the handshake phase; a
// peer that goes silent mid-handshake cannot pin a goroutine forever.
func (c *conn) setHandshakeDeadline(d time.Duration) {
	c.raw.SetReadDeadline(time.Now().Add(d))
}

// clearDeadline disarms the handshake deadline once the peer is
// authenticated; liveness is heartbeat-driven from here on.
func (c *conn) clearDeadline() {
	c.raw.SetReadDeadline(time.Time{})
}

func (c *conn) close() error { return c.raw.Close() }

// negotiatedCodecs returns the codec list a master with the given Codec
// mode offers in its challenge (nil for CodecJSON).
func negotiatedCodecs(mode string) []string {
	if mode == CodecJSON {
		return nil
	}
	return []string{codecBinaryV1}
}

// pickCodec returns the codec a client with the given mode echoes from
// the master's offer ("" to stay on JSON).
func pickCodec(mode string, offered []string) string {
	if mode == CodecJSON {
		return ""
	}
	for _, c := range offered {
		if c == codecBinaryV1 {
			return c
		}
	}
	return ""
}

// newNonce returns a fresh random handshake nonce.
func newNonce() (string, error) {
	b := make([]byte, 16)
	if _, err := rand.Read(b); err != nil {
		return "", fmt.Errorf("webcom: nonce: %w", err)
	}
	return hex.EncodeToString(b), nil
}

// handshakePayload is the byte string signed during authentication: it
// binds the signer's role, the peer's nonce and the signer's principal so
// a signature cannot be replayed in the opposite direction or for another
// key.
func handshakePayload(role, nonce, principal string) []byte {
	return []byte("webcom-handshake|" + role + "|" + nonce + "|" + principal)
}
