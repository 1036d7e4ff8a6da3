package gateway

// The /v1/decide codec. The endpoint has exactly two body shapes and two
// reply shapes, so both directions are written by hand over pooled
// buffers instead of going through encoding/json's reflection: a warm
// request decodes into maps and slices the previous request left
// behind, and its reply is rendered into a reused byte slice.
//
// The decoder accepts a subset of what encoding/json accepts and, on
// that subset, decodes exactly what json.Unmarshal decodes
// (FuzzDecideBody checks both halves). It deliberately refuses a
// repeated member name and a member name that differs from a known one
// only by case, where encoding/json would silently let the last or the
// case-folded one win. The encoder's bytes equal json.Encoder's for the
// same reply, HTML escaping and trailing newline included.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"securewebcom/internal/authz"
	"securewebcom/internal/keynote"
)

// errTooManyQueries refuses a bulk batch at query MaxBulkQueries+1,
// while it is still being parsed.
var errTooManyQueries = fmt.Errorf("bulk batch over %d queries", MaxBulkQueries)

// Pooled buffers and maps that grew past these are dropped on release,
// so one large request does not pin its memory in the pool.
const (
	maxPooledBytes = 64 << 10
	maxPooledAttrs = 16
)

// decideState is everything one /v1/decide request decodes into and
// encodes from. It is pooled whole.
type decideState struct {
	body bytes.Buffer
	req  decideRequest
	qs   []keynote.Query
	who  [1]string // the queries' authorizer list
	out  []byte
	sc   scanner
}

var statePool = sync.Pool{New: func() any { return new(decideState) }}

// release clears what the request left (so the pool pins none of its
// strings) and returns the state to the pool.
func (d *decideState) release() {
	if d.body.Cap() > maxPooledBytes {
		d.body = bytes.Buffer{}
	}
	d.body.Reset()
	if cap(d.out) > maxPooledBytes {
		d.out = nil
	}
	d.req.Operation = ""
	d.req.Attributes = clearAttrs(d.req.Attributes)
	for i := range d.req.Queries {
		q := &d.req.Queries[i]
		q.Operation = ""
		q.Attributes = clearAttrs(q.Attributes)
	}
	d.req.Queries = d.req.Queries[:0]
	clear(d.qs)
	d.qs = d.qs[:0]
	d.who[0] = ""
	d.sc = scanner{}
	statePool.Put(d)
}

func clearAttrs(m map[string]string) map[string]string {
	if len(m) > maxPooledAttrs {
		return nil
	}
	clear(m)
	return m
}

// read reads and decodes a /v1/decide body into d.req.
func (d *decideState) read(body io.Reader) error {
	if _, err := d.body.ReadFrom(body); err != nil {
		return err
	}
	return d.decode(d.body.Bytes())
}

// decode parses data, one of the two /v1/decide shapes, into d.req,
// which must be empty (fresh or released).
func (d *decideState) decode(data []byte) error {
	d.sc = scanner{data: data}
	if err := d.object(&d.req.Operation, &d.req.Attributes, true); err != nil {
		return err
	}
	if d.sc.ws(); d.sc.i != len(data) {
		return d.sc.syntax("after top-level value")
	}
	return nil
}

// object parses the request object (top: "queries" is a member) or one
// query object into op and attrs. A member named twice is refused.
func (d *decideState) object(op *string, attrs *map[string]string, top bool) error {
	s := &d.sc
	var seen uint8
	more, err := s.open('{')
	for more && err == nil {
		var k []byte
		if k, err = s.key(); err != nil {
			break
		}
		var bit uint8 // 0 for a member no field has
		switch {
		case string(k) == "operation":
			bit = 1
		case string(k) == "attributes":
			bit = 2
		case top && string(k) == "queries":
			bit = 4
		}
		if seen&bit != 0 {
			return fmt.Errorf("member %q repeated", k)
		}
		seen |= bit
		switch bit {
		case 1:
			err = s.stringOrNull(op)
		case 2:
			*attrs, err = s.attrs(*attrs)
		case 4:
			err = d.queries()
		default:
			err = s.unknown(k, top)
		}
		if err == nil {
			more, err = s.next('}')
		}
	}
	return err
}

// queries parses the "queries" member: null, or an array of at most
// MaxBulkQueries objects (or nulls, which decode as empty queries).
func (d *decideState) queries() error {
	s := &d.sc
	if s.literal("null") {
		return nil
	}
	more, err := s.open('[')
	for more && err == nil {
		n := len(d.req.Queries)
		if n == MaxBulkQueries {
			return errTooManyQueries
		}
		if n < cap(d.req.Queries) {
			d.req.Queries = d.req.Queries[:n+1]
		} else {
			d.req.Queries = append(d.req.Queries, decideQuery{})
		}
		if q := &d.req.Queries[n]; !s.literal("null") {
			err = d.object(&q.Operation, &q.Attributes, false)
		}
		if err == nil {
			more, err = s.next(']')
		}
	}
	return err
}

// attrs parses an "attributes" member into m (empty or nil; allocated
// on first use): null, or an object of string (or null, meaning "")
// values. A repeated name is refused.
func (s *scanner) attrs(m map[string]string) (map[string]string, error) {
	if s.literal("null") {
		return m, nil
	}
	more, err := s.open('{')
	for more && err == nil {
		var k []byte
		if k, err = s.key(); err != nil {
			break
		}
		if _, dup := m[string(k)]; dup {
			return m, fmt.Errorf("attribute %q repeated", k)
		}
		name := string(k) // reading the value may reuse k's bytes
		var v string
		if err = s.stringOrNull(&v); err != nil {
			break
		}
		if m == nil {
			m = make(map[string]string, 4)
		}
		m[name] = v
		more, err = s.next('}')
	}
	return m, err
}

// scanner is a cursor over one JSON text.
type scanner struct {
	data  []byte
	i     int
	valid bool   // data passed encoding/json's validation
	buf   []byte // the last string that needed unquoting
}

func (s *scanner) syntax(where string) error {
	if s.i >= len(s.data) {
		return fmt.Errorf("unexpected end of JSON input %s", where)
	}
	return fmt.Errorf("invalid character %q at offset %d %s", s.data[s.i], s.i, where)
}

// ws skips JSON whitespace.
func (s *scanner) ws() {
	for s.i < len(s.data) {
		switch s.data[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte (0 at the end).
func (s *scanner) peek() byte {
	s.ws()
	if s.i < len(s.data) {
		return s.data[s.i]
	}
	return 0
}

// literal consumes lit if it comes next.
func (s *scanner) literal(lit string) bool {
	s.ws()
	if bytes.HasPrefix(s.data[s.i:], []byte(lit)) {
		s.i += len(lit)
		return true
	}
	return false
}

// open consumes the opening c ('{' or '[') of a container and reports
// whether it has any members.
func (s *scanner) open(c byte) (bool, error) {
	if s.peek() != c {
		return false, s.syntax(fmt.Sprintf("looking for %q", c))
	}
	s.i++
	closer := byte('}')
	if c == '[' {
		closer = ']'
	}
	if s.peek() == closer {
		s.i++
		return false, nil
	}
	return true, nil
}

// next consumes the ',' or the closer after a member and reports
// whether another member follows.
func (s *scanner) next(closer byte) (bool, error) {
	switch s.peek() {
	case ',':
		s.i++
		return true, nil
	case closer:
		s.i++
		return false, nil
	}
	return false, s.syntax("after a member")
}

// key reads an object member's name and its ':'.
func (s *scanner) key() ([]byte, error) {
	k, err := s.string()
	if err != nil {
		return nil, err
	}
	if s.peek() != ':' {
		return nil, s.syntax("after a member name")
	}
	s.i++
	return k, nil
}

// stringOrNull reads a string into *dst; null leaves *dst unchanged,
// as encoding/json does.
func (s *scanner) stringOrNull(dst *string) error {
	if s.literal("null") {
		return nil
	}
	v, err := s.string()
	if err == nil {
		*dst = string(v)
	}
	return err
}

// string reads a string and returns it unquoted. A plain one (printable
// ASCII without escapes) is returned as a slice of the body; any other
// is unquoted into s.buf, valid until the next string is read.
func (s *scanner) string() ([]byte, error) {
	if s.peek() != '"' {
		return nil, s.syntax("looking for a string")
	}
	s.i++
	from, plain := s.i, true
	for ; s.i < len(s.data); s.i++ {
		switch c := s.data[s.i]; {
		case c == '"':
			s.i++
			if plain {
				return s.data[from : s.i-1], nil
			}
			return s.unquote(s.data[from : s.i-1])
		case c == '\\':
			plain = false
			s.i++
		case c < 0x20 || c >= utf8.RuneSelf:
			plain = false
		}
	}
	return nil, s.syntax("in string literal")
}

// unquote decodes a string literal's contents q into s.buf as
// encoding/json decodes them: invalid UTF-8 and unpaired surrogates
// become U+FFFD.
func (s *scanner) unquote(q []byte) ([]byte, error) {
	b := s.buf[:0]
	for i := 0; i < len(q); {
		c := q[i]
		switch {
		case c < 0x20:
			return nil, fmt.Errorf("invalid character %q in string literal", c)
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(q[i:])
			b, i = utf8.AppendRune(b, r), i+n
		case c != '\\':
			b, i = append(b, c), i+1
		case escaped[q[i+1]] != 0: // string never leaves a backslash last
			b, i = append(b, escaped[q[i+1]]), i+2
		default: // \uXXXX, perhaps the first half of a surrogate pair
			r := hex4(q[i:])
			if r < 0 {
				return nil, fmt.Errorf("invalid escape %q in string literal", q[i:i+2])
			}
			i += 6
			if utf16.IsSurrogate(r) {
				if pair := utf16.DecodeRune(r, hex4(q[i:])); pair != utf8.RuneError {
					r, i = pair, i+6
				} else {
					r = utf8.RuneError
				}
			}
			b = utf8.AppendRune(b, r)
		}
	}
	s.buf = b
	return b, nil
}

// escaped maps a one-character escape to the byte it stands for.
var escaped = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// hex4 decodes the \uXXXX escape at the start of q (-1 if there is none).
func hex4(q []byte) rune {
	if len(q) < 6 || q[0] != '\\' || q[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range q[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unknown handles a member no field has. A name equal to a field's
// under encoding/json's case folding is refused; any other member is
// skipped with its value, as encoding/json ignores it, once the whole
// body has passed encoding/json's validation (which also bounds its
// nesting).
func (s *scanner) unknown(k []byte, top bool) error {
	for _, f := range [...]string{"operation", "attributes", "queries"} {
		if (top || f != "queries") && bytes.EqualFold(k, []byte(f)) {
			return fmt.Errorf("member %q is not %q", k, f)
		}
	}
	if !s.valid {
		if !json.Valid(s.data) {
			return json.Unmarshal(s.data, new(struct{})) // for its syntax error
		}
		s.valid = true
	}
	s.skip()
	return nil
}

// skip passes over one value of a body known to be valid JSON.
func (s *scanner) skip() {
	for depth := 0; ; {
		switch s.ws(); s.data[s.i] {
		case '"':
			for s.i++; s.data[s.i] != '"'; s.i++ {
				if s.data[s.i] == '\\' {
					s.i++
				}
			}
			s.i++
		case '{', '[':
			depth++
			s.i++
		case '}', ']':
			depth--
			s.i++
		case ',', ':':
			s.i++
		default: // a number, true, false or null
			for s.i < len(s.data) && strings.IndexByte(" \t\n\r,}]", s.data[s.i]) < 0 {
				s.i++
			}
		}
		if depth == 0 {
			return
		}
	}
}

// appendResult renders one decision's wire fields, without the closing
// brace, as json.Encoder renders decideResult.
func appendResult(b []byte, d *authz.Decision) []byte {
	b = append(b, `{"allowed":`...)
	b = strconv.AppendBool(b, d.Allowed)
	b = append(b, `,"value":`...)
	b = appendString(b, d.Value)
	b = append(b, `,"cache_hit":`...)
	return strconv.AppendBool(b, d.Trace.CacheHit)
}

// appendTail closes a reply with its epoch and principal, as
// json.Encoder ends decideResponse and bulkResponse.
func appendTail(b []byte, epoch uint64, principal string) []byte {
	b = append(b, `,"epoch":`...)
	b = strconv.AppendUint(b, epoch, 10)
	b = append(b, `,"principal":`...)
	b = appendString(b, principal)
	return append(b, "}\n"...)
}

// appendDecideReply renders a single decide's decideResponse.
func appendDecideReply(b []byte, d *authz.Decision, epoch uint64, principal string) []byte {
	return appendTail(appendResult(b, d), epoch, principal)
}

// appendBulkReply renders a bulk decide's bulkResponse.
func appendBulkReply(b []byte, ds []*authz.Decision, epoch uint64, principal string) []byte {
	b = append(b, `{"decisions":[`...)
	for i, d := range ds {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(appendResult(b, d), '}')
	}
	return appendTail(append(b, ']'), epoch, principal)
}

// appendString renders s as a JSON string. Printable ASCII without
// quotes, backslashes or HTML metacharacters is copied as is; anything
// else goes through encoding/json, so the escaping is json.Encoder's
// to the byte.
func appendString(b []byte, s string) []byte {
	if strings.ContainsFunc(s, func(r rune) bool {
		return r < 0x20 || r >= utf8.RuneSelf || r == '"' || r == '\\' || r == '<' || r == '>' || r == '&'
	}) {
		q, _ := json.Marshal(s)
		return append(b, q...)
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
