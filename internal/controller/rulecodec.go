package controller

import (
	"errors"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"github.com/jurysdn/jury/internal/openflow"
)

// The FlowsDB rule codec. The validator decodes one rule per benign FlowsDB
// trigger and renders two strings from it, so the codec is hand-written and
// append-style: decoding allocates only the rule's Actions (plus any string
// that needed unescaping), and encoding into a reused buffer allocates
// nothing.
//
// Encode writes exactly the bytes json.Marshal writes for FlowRule's struct
// tags. DecodeFlowRule accepts, rejects and merges input exactly as
// json.Unmarshal into a FlowRule does: JSON whitespace and any key order;
// keys matched exactly or under Unicode case folding, escaped or not;
// unknown members skipped; a repeated key decoding over what the earlier one
// left; null leaving a field alone (and setting Actions to nil); type,
// range and syntax errors and trailing data rejected; nesting deeper than
// 10000 rejected; invalid UTF-8 and unpaired surrogates in strings becoming
// U+FFFD. FuzzFlowRuleCodec holds both directions to encoding/json.

// Encode serializes the rule for storage in FlowsDB.
func (r FlowRule) Encode() string {
	var buf [512]byte
	return string(r.AppendEncode(buf[:0]))
}

// AppendEncode appends Encode's bytes to b.
func (r FlowRule) AppendEncode(b []byte) []byte {
	m := &r.Match
	b = strconv.AppendUint(append(b, `{"dpid":`...), uint64(r.DPID), 10)
	b = strconv.AppendUint(append(b, `,"match":{"Wildcards":`...), uint64(m.Wildcards), 10)
	b = strconv.AppendUint(append(b, `,"InPort":`...), uint64(m.InPort), 10)
	b = appendByteArray(append(b, `,"DLSrc":`...), m.DLSrc[:])
	b = appendByteArray(append(b, `,"DLDst":`...), m.DLDst[:])
	b = strconv.AppendUint(append(b, `,"DLVLAN":`...), uint64(m.DLVLAN), 10)
	b = strconv.AppendUint(append(b, `,"DLVLANPCP":`...), uint64(m.DLVLANPCP), 10)
	b = strconv.AppendUint(append(b, `,"DLType":`...), uint64(m.DLType), 10)
	b = strconv.AppendUint(append(b, `,"NWTOS":`...), uint64(m.NWTOS), 10)
	b = strconv.AppendUint(append(b, `,"NWProto":`...), uint64(m.NWProto), 10)
	b = appendByteArray(append(b, `,"NWSrc":`...), m.NWSrc[:])
	b = appendByteArray(append(b, `,"NWDst":`...), m.NWDst[:])
	b = strconv.AppendUint(append(b, `,"TPSrc":`...), uint64(m.TPSrc), 10)
	b = strconv.AppendUint(append(b, `,"TPDst":`...), uint64(m.TPDst), 10)
	b = strconv.AppendUint(append(b, `},"priority":`...), uint64(r.Priority), 10)
	if r.Actions == nil {
		b = append(b, `,"actions":null`...)
	} else {
		b = append(b, `,"actions":[`...)
		for i, a := range r.Actions {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(append(b, `{"Port":`...), uint64(a.Port), 10)
			b = append(strconv.AppendUint(append(b, `,"MaxLen":`...), uint64(a.MaxLen), 10), '}')
		}
		b = append(b, ']')
	}
	if r.IdleTimeout != 0 {
		b = strconv.AppendUint(append(b, `,"idleTimeoutSec":`...), uint64(r.IdleTimeout), 10)
	}
	if r.HardTimeout != 0 {
		b = strconv.AppendUint(append(b, `,"hardTimeoutSec":`...), uint64(r.HardTimeout), 10)
	}
	b = strconv.AppendUint(append(b, `,"command":`...), uint64(r.Command), 10)
	if r.Trigger != "" {
		b = appendJSONString(append(b, `,"trigger":`...), string(r.Trigger))
	}
	b = strconv.AppendInt(append(b, `,"origin":`...), int64(r.Origin), 10)
	if r.State != "" {
		b = appendJSONString(append(b, `,"state":`...), r.State)
	}
	return append(b, '}')
}

// appendByteArray renders a fixed-size byte array the way encoding/json
// does: as an array of numbers (only byte slices become base64).
func appendByteArray(b, a []byte) []byte {
	b = append(b, '[')
	for i, x := range a {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, uint64(x), 10)
	}
	return append(b, ']')
}

// appendJSONString quotes s with json.Marshal's escaping: the short escapes,
// a six-byte \u escape for every other control character, for '<', '>' and
// '&', for U+2028 and U+2029, and (as the escape of U+FFFD) for each byte of
// invalid UTF-8.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			if j := strings.IndexByte("\"\\\b\f\n\r\t", c); j >= 0 {
				b = append(b, '\\', `"\bfnrt`[j])
			} else {
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029:
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// maxJSONDepth is encoding/json's nesting limit.
const maxJSONDepth = 10000

// ruleDecoder is a cursor over one FlowsDB value. The first error is kept
// and moves the cursor to the end of the input, so every later step sees
// the end and stops.
type ruleDecoder struct {
	s     string
	i     int
	depth int
	err   error
}

// DecodeFlowRule parses a FlowsDB value.
func DecodeFlowRule(s string) (FlowRule, error) {
	var r FlowRule
	d := ruleDecoder{s: s}
	d.ws()
	d.decodeObject(ruleFields, func(name string) {
		switch name {
		case "dpid":
			decodeUint(&d, &r.DPID)
		case "match":
			d.match(&r.Match)
		case "priority":
			decodeUint(&d, &r.Priority)
		case "actions":
			d.actions(&r.Actions)
		case "idleTimeoutSec":
			decodeUint(&d, &r.IdleTimeout)
		case "hardTimeoutSec":
			decodeUint(&d, &r.HardTimeout)
		case "command":
			decodeUint(&d, &r.Command)
		case "trigger":
			decodeString(&d, &r.Trigger)
		case "origin":
			decodeInt(&d, &r.Origin)
		case "state":
			decodeString(&d, &r.State)
		}
	})
	d.ws()
	if d.i < len(s) {
		d.fail("invalid character after top-level value")
	}
	if d.err != nil {
		return FlowRule{}, d.err
	}
	return r, nil
}

// Member names of the three objects a rule is made of, as encoding/json
// names them (the struct tag, else the Go field name).
var (
	ruleFields   = []string{"dpid", "match", "priority", "actions", "idleTimeoutSec", "hardTimeoutSec", "command", "trigger", "origin", "state"}
	matchFields  = []string{"Wildcards", "InPort", "DLSrc", "DLDst", "DLVLAN", "DLVLANPCP", "DLType", "NWTOS", "NWProto", "NWSrc", "NWDst", "TPSrc", "TPDst"}
	actionFields = []string{"Port", "MaxLen"}
)

// decodeObject consumes an object, or null, which leaves the target alone.
// For each key that selects one of names, member is called with that name
// once the cursor is at the value, and consumes it; other keys' values are
// skipped. encoding/json selects the name a key equals, else one it equals
// under Unicode case folding; each list's names are pairwise fold-distinct,
// so the first fold match is the only one.
func (d *ruleDecoder) decodeObject(names []string, member func(name string)) {
	if d.null() {
		return
	}
next:
	for more := d.open('{', '}'); more; more = d.next('}') {
		if d.peek() != '"' {
			d.fail("expected object key")
			return
		}
		key := d.str()
		d.ws()
		if d.peek() != ':' {
			d.fail("expected ':' after object key")
			return
		}
		d.i++
		d.ws()
		for _, n := range names {
			if strings.EqualFold(key, n) {
				member(n)
				continue next
			}
		}
		d.skip()
	}
}

func (d *ruleDecoder) match(m *openflow.Match) {
	d.decodeObject(matchFields, func(name string) {
		switch name {
		case "Wildcards":
			decodeUint(d, &m.Wildcards)
		case "InPort":
			decodeUint(d, &m.InPort)
		case "DLSrc":
			d.byteArray(m.DLSrc[:])
		case "DLDst":
			d.byteArray(m.DLDst[:])
		case "DLVLAN":
			decodeUint(d, &m.DLVLAN)
		case "DLVLANPCP":
			decodeUint(d, &m.DLVLANPCP)
		case "DLType":
			decodeUint(d, &m.DLType)
		case "NWTOS":
			decodeUint(d, &m.NWTOS)
		case "NWProto":
			decodeUint(d, &m.NWProto)
		case "NWSrc":
			d.byteArray(m.NWSrc[:])
		case "NWDst":
			d.byteArray(m.NWDst[:])
		case "TPSrc":
			decodeUint(d, &m.TPSrc)
		case "TPDst":
			decodeUint(d, &m.TPDst)
		}
	})
}

// actions decodes into the slice an earlier "actions" member may have left,
// as encoding/json does: element i decodes over the old element i, which
// past the old length but within its capacity is whatever that held.
func (d *ruleDecoder) actions(v *[]openflow.Action) {
	if d.null() {
		*v = nil
		return
	}
	acts := *v
	n := d.array(func(i int) {
		if i == cap(acts) { // then also i == len(acts)
			acts = append(acts, openflow.Action{})
		}
		acts = acts[:max(i+1, len(acts))]
		a := &acts[i]
		d.decodeObject(actionFields, func(name string) {
			if name == "Port" {
				decodeUint(d, &a.Port)
			} else {
				decodeUint(d, &a.MaxLen)
			}
		})
	})
	if n == 0 {
		*v = []openflow.Action{}
	} else {
		*v = acts[:n]
	}
}

// byteArray decodes into a fixed-size byte array as encoding/json does:
// elements past the JSON array's end are zeroed, extra elements skipped.
func (d *ruleDecoder) byteArray(a []byte) {
	if d.null() {
		return
	}
	n := d.array(func(i int) {
		if i < len(a) {
			decodeUint(d, &a[i])
		} else {
			d.skip()
		}
	})
	clear(a[min(n, len(a)):])
}

// decodeUint decodes a number into an unsigned field; null leaves it alone.
func decodeUint[T ~uint8 | ~uint16 | ~uint32 | ~uint64](d *ruleDecoder, v *T) {
	if d.null() {
		return
	}
	at := d.i
	n, err := strconv.ParseUint(d.number(), 10, 64)
	if err != nil || uint64(T(n)) != n {
		d.failAt(at, "number is not an unsigned integer of the field's width")
		return
	}
	*v = T(n)
}

// decodeInt decodes a number into a signed field; null leaves it alone.
func decodeInt[T ~int | ~int64](d *ruleDecoder, v *T) {
	if d.null() {
		return
	}
	at := d.i
	n, err := strconv.ParseInt(d.number(), 10, 64)
	if err != nil || int64(T(n)) != n {
		d.failAt(at, "number is not an integer of the field's width")
		return
	}
	*v = T(n)
}

// decodeString decodes a string into a string field; null leaves it alone.
func decodeString[T ~string](d *ruleDecoder, v *T) {
	if !d.null() {
		*v = T(d.str())
	}
}

func (d *ruleDecoder) failAt(off int, msg string) {
	if d.err == nil {
		d.err = errors.New("controller: decode flow rule: " + msg + " at offset " + strconv.Itoa(off))
	}
	d.i = len(d.s)
}

func (d *ruleDecoder) fail(msg string) { d.failAt(d.i, msg) }

// peek returns the next byte, 0 at the end of the input.
func (d *ruleDecoder) peek() byte { return at(d.s, d.i) }

func at(s string, i int) byte {
	if i < len(s) {
		return s[i]
	}
	return 0
}

func (d *ruleDecoder) ws() {
	for {
		switch d.peek() {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// null consumes a null literal if one is next.
func (d *ruleDecoder) null() bool {
	if strings.HasPrefix(d.s[d.i:], "null") {
		d.i += 4
		return true
	}
	return false
}

// array consumes an array, which must be next, calling elem with each index
// once the cursor is at that element; elem consumes the element. It returns
// the element count.
func (d *ruleDecoder) array(elem func(i int)) int {
	n := 0
	for more := d.open('[', ']'); more; more = d.next(']') {
		elem(n)
		n++
	}
	return n
}

// open consumes the opening byte of a container and reports whether a
// first member or element follows.
func (d *ruleDecoder) open(start, end byte) bool {
	if d.peek() != start {
		d.fail("expected " + string(rune(start)))
		return false
	}
	d.i++
	if d.depth++; d.depth > maxJSONDepth {
		d.fail("exceeded max depth")
		return false
	}
	d.ws()
	return !d.close(end)
}

// next consumes what follows a member or element: a comma, reporting that
// another one follows, or the container's closing byte.
func (d *ruleDecoder) next(end byte) bool {
	d.ws()
	if d.peek() == ',' {
		d.i++
		d.ws()
		return true
	}
	if !d.close(end) {
		d.fail("expected ',' or " + string(rune(end)))
	}
	return false
}

func (d *ruleDecoder) close(end byte) bool {
	if d.peek() != end {
		return false
	}
	d.i++
	d.depth--
	return true
}

// skip consumes any value.
func (d *ruleDecoder) skip() {
	switch c := d.peek(); {
	case c == '{':
		d.decodeObject(nil, nil)
	case c == '[':
		d.array(func(int) { d.skip() })
	case c == '"':
		d.scanString()
	case strings.HasPrefix(d.s[d.i:], "true"):
		d.i += 4
	case strings.HasPrefix(d.s[d.i:], "false"):
		d.i += 5
	case d.null():
	default:
		d.number()
	}
}

// number consumes a number and returns its text.
func (d *ruleDecoder) number() string {
	s, start := d.s, d.i
	i := start
	if at(s, i) == '-' {
		i++
	}
	switch c := at(s, i); {
	case c == '0':
		i++
	case '1' <= c && c <= '9':
		i = digits(s, i)
	default:
		d.failAt(i, "invalid number")
		return ""
	}
	if at(s, i) == '.' {
		if i = digits(s, i+1); s[i-1] == '.' {
			d.failAt(i, "expected digit after decimal point")
			return ""
		}
	}
	if c := at(s, i); c == 'e' || c == 'E' {
		if c := at(s, i+1); c == '+' || c == '-' {
			i++
		}
		if i = digits(s, i+1); s[i-1] < '0' || s[i-1] > '9' {
			d.failAt(i, "expected digit in exponent")
			return ""
		}
	}
	d.i = i
	return s[start:i]
}

func digits(s string, i int) int {
	for c := at(s, i); '0' <= c && c <= '9'; c = at(s, i) {
		i++
	}
	return i
}

// str consumes a string and returns it decoded.
func (d *ruleDecoder) str() string {
	raw, plain := d.scanString()
	if plain {
		return raw
	}
	return unquote(raw)
}

// scanString consumes a string and returns the text between its quotes;
// plain reports that the text is its own decoding (no escape, valid UTF-8).
func (d *ruleDecoder) scanString() (raw string, plain bool) {
	if d.peek() != '"' {
		d.fail("expected string")
		return "", false
	}
	s, start := d.s, d.i+1
	escaped, ascii := false, true
	for i := start; i < len(s); {
		switch c := s[i]; {
		case c == '"':
			d.i = i + 1
			raw = s[start:i]
			return raw, !escaped && (ascii || utf8.ValidString(raw))
		case c < 0x20:
			d.failAt(i, "control character in string literal")
			return "", false
		case c == '\\':
			escaped = true
			switch at(s, i+1) {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if hex4(s, i+2) < 0 {
					d.failAt(i, "invalid escape")
					return "", false
				}
				i += 6
			default:
				d.failAt(i, "invalid escape")
				return "", false
			}
		default:
			ascii = ascii && c < utf8.RuneSelf
			i++
		}
	}
	d.fail("unterminated string")
	return "", false
}

// hex4 parses the four hex digits at s[i:], or returns -1.
func hex4(s string, i int) rune {
	if i+4 > len(s) {
		return -1
	}
	var r rune
	for _, c := range []byte(s[i : i+4]) {
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

// unquote decodes the text of a well-formed string literal as encoding/json
// does, U+FFFD replacements included.
func unquote(raw string) string {
	b := make([]byte, 0, len(raw)+utf8.UTFMax)
	for i := 0; i < len(raw); {
		c := raw[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(raw[i:])
			b = utf8.AppendRune(b, r)
			i += size
			continue
		}
		if c != '\\' {
			b = append(b, c)
			i++
			continue
		}
		switch c = raw[i+1]; c {
		case 'u':
			r := hex4(raw, i+2)
			i += 6
			if utf16.IsSurrogate(r) {
				// A valid pair consumes the next escape; otherwise r becomes
				// U+FFFD and the next escape decodes on its own.
				next := rune(-1)
				if at(raw, i) == '\\' && at(raw, i+1) == 'u' {
					next = hex4(raw, i+2)
				}
				if r = utf16.DecodeRune(r, next); r != utf8.RuneError {
					i += 6
				}
			}
			b = utf8.AppendRune(b, r)
			continue
		case 'b':
			c = '\b'
		case 'f':
			c = '\f'
		case 'n':
			c = '\n'
		case 'r':
			c = '\r'
		case 't':
			c = '\t'
		}
		b = append(b, c) // '"', '\\' and '/' stand for themselves
		i += 2
	}
	return string(b)
}
