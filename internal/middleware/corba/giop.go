package corba

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"securewebcom/internal/middleware"
	"securewebcom/internal/netserve"
)

// GIOP-lite: a framed request/reply protocol in the spirit of CORBA's
// General Inter-ORB Protocol. Frames are:
//
//	4 bytes magic "GIOP" | 1 byte version (1) | 1 byte message type |
//	4 bytes big-endian body length | JSON body
//
// Message types: 0 = Request, 1 = Reply. Object references are textual
// IORs of the form "IOR:<host:port>/<object key>".

const giopVersion = 1

var giopMagic = [4]byte{'G', 'I', 'O', 'P'}

// Message types.
const (
	msgRequest = 0
	msgReply   = 1
)

const maxBody = 1 << 20 // 1 MiB frame cap, matching a small ORB's limits

type giopRequest struct {
	RequestID uint64   `json:"id"`
	ObjectKey string   `json:"key"`
	Operation string   `json:"op"`
	Principal string   `json:"principal"`
	Args      []string `json:"args,omitempty"`
}

// Reply status codes: 0 = ok, 1 = access denied, 2 = system exception.
const (
	statusOK     = 0
	statusDenied = 1
	statusExc    = 2
)

type giopReply struct {
	RequestID uint64 `json:"id"`
	Status    int    `json:"status"`
	Result    string `json:"result,omitempty"`
	Error     string `json:"error,omitempty"`
}

func writeFrame(w io.Writer, msgType byte, body any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	if len(payload) > maxBody {
		return fmt.Errorf("corba: frame body %d exceeds limit", len(payload))
	}
	hdr := make([]byte, 10)
	copy(hdr, giopMagic[:])
	hdr[4] = giopVersion
	hdr[5] = msgType
	binary.BigEndian.PutUint32(hdr[6:], uint32(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

func readFrame(r io.Reader, body any) (byte, error) {
	hdr := make([]byte, 10)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, err
	}
	if [4]byte(hdr[:4]) != giopMagic {
		return 0, errors.New("corba: bad GIOP magic")
	}
	if hdr[4] != giopVersion {
		return 0, fmt.Errorf("corba: unsupported GIOP version %d", hdr[4])
	}
	n := binary.BigEndian.Uint32(hdr[6:])
	if n > maxBody {
		return 0, fmt.Errorf("corba: frame body %d exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, err
	}
	return hdr[5], json.Unmarshal(payload, body)
}

// Server exposes an ORB over TCP.
type Server struct {
	orb *ORB
	srv netserve.Server
}

// Serve starts serving the ORB on addr (use "127.0.0.1:0" for an
// ephemeral port). It returns once the listener is active; connections
// are handled on background goroutines until Close.
func Serve(orb *ORB, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("corba: listen %s: %w", addr, err)
	}
	s := &Server{orb: orb}
	s.srv.Serve(ln, s.serveConn)
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.srv.Addr().String() }

// IOR returns the interoperable object reference for an object key.
func (s *Server) IOR(objectKey string) string {
	return "IOR:" + s.Addr() + "/" + objectKey
}

// Close stops accepting connections, severs every open one, and returns
// once every connection handler has exited.
func (s *Server) Close() error { return s.srv.Close() }

func (s *Server) serveConn(conn net.Conn) {
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	for {
		var req giopRequest
		msgType, err := readFrame(br, &req)
		if err != nil {
			return // connection closed or protocol error
		}
		if msgType != msgRequest {
			return
		}
		reply := giopReply{RequestID: req.RequestID}
		result, err := s.orb.invokeByKey(req.Principal, req.ObjectKey, req.Operation, req.Args)
		switch {
		case err == nil:
			reply.Status = statusOK
			reply.Result = result
		case isDenied(err):
			reply.Status = statusDenied
			reply.Error = err.Error()
		default:
			reply.Status = statusExc
			reply.Error = err.Error()
		}
		if err := writeFrame(bw, msgReply, &reply); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

func isDenied(err error) bool {
	var d *middleware.ErrDenied
	return errors.As(err, &d)
}

// RemoteObject is a client-side stub for a remote CORBA object.
type RemoteObject struct {
	key  string
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	mu     sync.Mutex
	nextID uint64
}

// Dial resolves an IOR and connects to the hosting ORB.
func Dial(ior string) (*RemoteObject, error) {
	rest, ok := strings.CutPrefix(ior, "IOR:")
	if !ok {
		return nil, fmt.Errorf("corba: malformed IOR %q", ior)
	}
	slash := strings.LastIndex(rest, "/")
	if slash < 0 {
		return nil, fmt.Errorf("corba: IOR %q lacks object key", ior)
	}
	addr, key := rest[:slash], rest[slash+1:]
	conn, err := net.DialTimeout("tcp", addr, invokeTimeout)
	if err != nil {
		return nil, fmt.Errorf("corba: dial %s: %w", addr, err)
	}
	return &RemoteObject{
		key:  key,
		conn: conn,
		br:   bufio.NewReader(conn),
		bw:   bufio.NewWriter(conn),
	}, nil
}

// invokeTimeout bounds one remote call, and the dial: an ORB that
// accepts and then stays silent fails the call instead of hanging it.
var invokeTimeout = 30 * time.Second

// Invoke performs a remote method call as the given principal.
// An access-denied reply surfaces as an error containing "access denied".
// A call that fails to get its reply leaves the connection closed, since
// a late reply would answer the next call.
func (ro *RemoteObject) Invoke(principal, operation string, args ...string) (string, error) {
	ro.mu.Lock()
	defer ro.mu.Unlock()
	ro.conn.SetDeadline(time.Now().Add(invokeTimeout))
	ro.nextID++
	req := giopRequest{
		RequestID: ro.nextID,
		ObjectKey: ro.key,
		Operation: operation,
		Principal: principal,
		Args:      args,
	}
	if err := writeFrame(ro.bw, msgRequest, &req); err != nil {
		return "", err
	}
	if err := ro.bw.Flush(); err != nil {
		return "", err
	}
	var reply giopReply
	msgType, err := readFrame(ro.br, &reply)
	if err != nil {
		ro.conn.Close()
		return "", err
	}
	if msgType != msgReply || reply.RequestID != req.RequestID {
		return "", errors.New("corba: protocol violation in reply")
	}
	switch reply.Status {
	case statusOK:
		return reply.Result, nil
	case statusDenied:
		return "", fmt.Errorf("corba: NO_PERMISSION: %s", reply.Error)
	default:
		return "", fmt.Errorf("corba: remote exception: %s", reply.Error)
	}
}

// Close closes the client connection.
func (ro *RemoteObject) Close() error { return ro.conn.Close() }
