package controller

import (
	"encoding/json"
	"strconv"
	"strings"
	"unicode/utf8"

	"github.com/jurysdn/jury/internal/openflow"
)

// The FlowsDB rule codec. The validator decodes one rule per benign FlowsDB
// trigger and renders two strings from it, so the codec is append-style:
// decoding a stored value allocates only the rule's Actions, and encoding
// into a reused buffer allocates nothing.
//
// Encode writes exactly the bytes json.Marshal writes for FlowRule's struct
// tags, and DecodeFlowRule returns exactly what json.Unmarshal into a
// FlowRule returns. Every stored value is in AppendEncode's layout, which
// decodeEncoded reads directly; anything else, and any string that needs
// escaping, is left to encoding/json itself. FuzzFlowRuleCodec holds both
// directions to encoding/json.

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

// appendJSONString quotes s as json.Marshal does. A string json.Marshal
// copies unchanged (valid UTF-8 with nothing it escapes: no control byte,
// '"', '\\', '<', '>', '&', U+2028 or U+2029) is copied here without
// allocating; any other goes through json.Marshal.
func appendJSONString(b []byte, s string) []byte {
	if utf8.ValidString(s) && !strings.ContainsAny(s, "\"\\<>&\u2028\u2029") &&
		!strings.ContainsFunc(s, func(r rune) bool { return r < 0x20 }) {
		return append(append(append(b, '"'), s...), '"')
	}
	// The clone keeps s from escaping through json.Marshal's interface
	// argument, so the rules AppendEncode's callers build can stay on the
	// stack; a string always marshals.
	q, _ := json.Marshal(strings.Clone(s))
	return append(b, q...)
}

// DecodeFlowRule parses a FlowsDB value. A value in the exact layout
// AppendEncode writes is read directly; any other goes to json.Unmarshal.
// Either way the result is json.Unmarshal's into a FlowRule, FlowRule{}
// with its error when it fails.
func DecodeFlowRule(s string) (FlowRule, error) {
	if r, ok := decodeEncoded(s); ok {
		return r, nil
	}
	var r FlowRule
	if err := json.Unmarshal([]byte(s), &r); err != nil {
		return FlowRule{}, err
	}
	return r, nil
}

// decodeEncoded reads a value laid out exactly as AppendEncode writes it:
// its keys in its order, no whitespace, the omitempty members present or
// not. It gives up (ok false) on anything else, and also on any number or
// string whose reading could differ from encoding/json's: a number with a
// leading zero, fraction or exponent, or out of the field's range; a
// string with an escape, a control byte or invalid UTF-8. What it accepts
// json.Unmarshal decodes to the same rule. It allocates only the Actions;
// strings are substrings of s.
func decodeEncoded(s string) (r FlowRule, ok bool) {
	d := encodedReader{s: s, ok: true}
	m := &r.Match
	readUint(&d, `{"dpid":`, &r.DPID)
	readUint(&d, `,"match":{"Wildcards":`, &m.Wildcards)
	readUint(&d, `,"InPort":`, &m.InPort)
	d.byteArray(`,"DLSrc":`, m.DLSrc[:])
	d.byteArray(`,"DLDst":`, m.DLDst[:])
	readUint(&d, `,"DLVLAN":`, &m.DLVLAN)
	readUint(&d, `,"DLVLANPCP":`, &m.DLVLANPCP)
	readUint(&d, `,"DLType":`, &m.DLType)
	readUint(&d, `,"NWTOS":`, &m.NWTOS)
	readUint(&d, `,"NWProto":`, &m.NWProto)
	d.byteArray(`,"NWSrc":`, m.NWSrc[:])
	d.byteArray(`,"NWDst":`, m.NWDst[:])
	readUint(&d, `,"TPSrc":`, &m.TPSrc)
	readUint(&d, `,"TPDst":`, &m.TPDst)
	readUint(&d, `},"priority":`, &r.Priority)
	d.actions(&r.Actions)
	if d.opt(`,"idleTimeoutSec":`) {
		readUint(&d, "", &r.IdleTimeout)
	}
	if d.opt(`,"hardTimeoutSec":`) {
		readUint(&d, "", &r.HardTimeout)
	}
	readUint(&d, `,"command":`, &r.Command)
	if d.opt(`,"trigger":`) {
		readString(&d, &r.Trigger)
	}
	readInt(&d, `,"origin":`, &r.Origin)
	if d.opt(`,"state":`) {
		readString(&d, &r.State)
	}
	if !d.lit("}") || d.s != "" {
		return FlowRule{}, false
	}
	return r, true
}

// encodedReader is decodeEncoded's cursor: s is the unread input. The
// first step that does not find what it expects clears ok, and every
// later step then does nothing.
type encodedReader struct {
	s  string
	ok bool
}

// opt consumes p if it comes next, and reports whether it did.
func (d *encodedReader) opt(p string) bool {
	if !d.ok || !strings.HasPrefix(d.s, p) {
		return false
	}
	d.s = d.s[len(p):]
	return true
}

// lit consumes p, which must come next.
func (d *encodedReader) lit(p string) bool {
	d.ok = d.opt(p)
	return d.ok
}

// number consumes the literal key (empty after an optional member's key,
// which opt has taken), then an integer with no leading zero, and returns
// the integer's text. A '-' is taken whatever the field; an
// unsigned field's parse then rejects it, as encoding/json does.
func (d *encodedReader) number(key string) string {
	if !d.lit(key) {
		return ""
	}
	i := 0
	if d.s != "" && d.s[0] == '-' {
		i++
	}
	j := i
	for j < len(d.s) && '0' <= d.s[j] && d.s[j] <= '9' {
		j++
	}
	if j == i || d.s[i] == '0' && j > i+1 {
		d.ok = false
		return ""
	}
	n := d.s[:j]
	d.s = d.s[j:]
	return n
}

// readUint consumes the literal key and an unsigned integer that fits *v.
func readUint[T ~uint8 | ~uint16 | ~uint32 | ~uint64](d *encodedReader, key string, v *T) {
	if s := d.number(key); d.ok {
		n, err := strconv.ParseUint(s, 10, 64)
		if d.ok = err == nil && uint64(T(n)) == n; d.ok {
			*v = T(n)
		}
	}
}

// readInt consumes the literal key and a signed integer that fits *v.
func readInt[T ~int | ~int64](d *encodedReader, key string, v *T) {
	if s := d.number(key); d.ok {
		n, err := strconv.ParseInt(s, 10, 64)
		if d.ok = err == nil && int64(T(n)) == n; d.ok {
			*v = T(n)
		}
	}
}

// readString consumes a string that is its own decoding: no escape, no
// control byte, valid UTF-8.
func readString[T ~string](d *encodedReader, v *T) {
	if !d.lit(`"`) {
		return
	}
	end := strings.IndexByte(d.s, '"')
	if end < 0 || strings.ContainsFunc(d.s[:end], func(r rune) bool { return r < 0x20 || r == '\\' }) ||
		!utf8.ValidString(d.s[:end]) {
		d.ok = false
		return
	}
	*v = T(d.s[:end])
	d.s = d.s[end+1:]
}

// byteArray consumes the literal key and an array of exactly len(a) bytes.
func (d *encodedReader) byteArray(key string, a []byte) {
	d.lit(key)
	for i := range a {
		sep := ","
		if i == 0 {
			sep = "["
		}
		readUint(d, sep, &a[i])
	}
	d.lit("]")
}

// actions consumes the actions member: null leaves *v nil, [] makes it
// empty, and otherwise one slice is allocated for the elements.
func (d *encodedReader) actions(v *[]openflow.Action) {
	if d.opt(`,"actions":null`) || !d.lit(`,"actions":[`) {
		return
	}
	if d.opt("]") {
		*v = []openflow.Action{}
		return
	}
	end := strings.IndexByte(d.s, ']')
	if end < 0 {
		d.ok = false
		return
	}
	acts := make([]openflow.Action, strings.Count(d.s[:end], "{"))
	for i := range acts {
		sep := `,{"Port":`
		if i == 0 {
			sep = sep[1:]
		}
		readUint(d, sep, &acts[i].Port)
		readUint(d, `,"MaxLen":`, &acts[i].MaxLen)
		d.lit("}")
	}
	if d.lit("]") {
		*v = acts
	}
}
