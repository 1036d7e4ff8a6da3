package daemon

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"securewebcom/internal/authz"
	"securewebcom/internal/webcom"
)

// Strings is a repeatable string flag.
type Strings []string

func (s *Strings) String() string     { return strings.Join(*s, ",") }
func (s *Strings) Set(v string) error { *s = append(*s, v); return nil }

// PeerFlags are the knobs a WebCom master and a WebCom client both
// declare: heartbeat liveness, the wire codec and denial tracing.
type PeerFlags struct {
	Live  webcom.Liveness
	Codec string
	Trace bool
}

// Register declares the flags on fs; peer names the other end of the
// connection ("a client", "the master") in their help.
func (f *PeerFlags) Register(fs *flag.FlagSet, peer string) {
	fs.DurationVar(&f.Live.PingInterval, "ping-interval", 0, "heartbeat interval (0 = default 15s)")
	fs.DurationVar(&f.Live.IdleTimeout, "idle-timeout", 0, "silence before "+peer+" is declared dead (0 = default 45s)")
	fs.DurationVar(&f.Live.HandshakeTimeout, "handshake-timeout", 0, "handshake read deadline (0 = default 10s)")
	fs.StringVar(&f.Codec, "codec", "", "wire codec: empty/\"binary\" negotiates the binary framed codec, \"json\" pins the JSON fallback")
	fs.BoolVar(&f.Trace, "trace", false, "log every authorisation denial with its full decision trace")
}

// TraceDenials mirrors log to stderr when -trace is set.
func (f *PeerFlags) TraceDenials(log *authz.AuditLog) {
	if f.Trace {
		log.SetSink(func(e authz.AuditEntry) {
			fmt.Fprintf(os.Stderr, "trace: %s", e.String())
		})
	}
}
