package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"time"
	"unsafe"

	"github.com/jurysdn/jury/internal/core"
	"github.com/jurysdn/jury/internal/openflow"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/topo"
	"github.com/jurysdn/jury/internal/trigger"
)

// Binary frame layout (codec v2; see the "Wire codec v2" section of
// DESIGN.md):
//
//	frame   := uvarint(len(payload)) payload
//	payload := type(1) flags(1) [response] [result] [stats] [trace]
//
// type is the envelope kind (binTypeResponse..binTypePong); flags is a
// presence bitmap (flagResponse..flagTrace) and bodies follow in flag
// order. Integers are varints (zig-zag for signed values, so the small
// magnitudes that dominate cost one byte), strings are length-prefixed
// byte runs, booleans one byte, and StateDigest is a fixed
// little-endian 8-byte word (digests are uniform 64-bit values, where a
// varint would average over nine bytes).

// ErrFrameTooLong reports a binary frame whose payload exceeded the
// reader's cap. Like ErrLineTooLong, the oversized frame is consumed so
// the stream stays usable: callers count the error and keep reading.
var ErrFrameTooLong = errors.New("wire: frame exceeds MaxLineBytes")

// ErrMalformedFrame reports a binary frame whose payload did not decode.
// The frame's bytes were fully consumed (the length prefix framed it),
// so the stream stays usable: callers count the error and keep reading.
var ErrMalformedFrame = errors.New("wire: malformed binary frame")

// Binary envelope type bytes (wire values; never renumber).
const (
	binTypeResponse = 1
	binTypeResult   = 2
	binTypeStats    = 3
	binTypePing     = 4
	binTypePong     = 5
)

// Presence flags for the envelope's optional bodies, in encode order.
const (
	flagResponse = 1 << iota
	flagResult
	flagStats
	flagTrace
)

// binType maps an envelope type to its wire byte (0 if unknown).
func binType(t MsgType) byte {
	switch t {
	case TypeResponse:
		return binTypeResponse
	case TypeResult:
		return binTypeResult
	case TypeStats:
		return binTypeStats
	case TypePing:
		return binTypePing
	case TypePong:
		return binTypePong
	default:
		return 0
	}
}

// typeFromBin maps a wire byte back to the envelope type.
func typeFromBin(b byte) (MsgType, bool) {
	switch b {
	case binTypeResponse:
		return TypeResponse, true
	case binTypeResult:
		return TypeResult, true
	case binTypeStats:
		return TypeStats, true
	case binTypePing:
		return TypePing, true
	case binTypePong:
		return TypePong, true
	default:
		return "", false
	}
}

// AppendEnvelope appends env as one length-prefixed binary frame to dst
// and returns the extended slice, append-style: a caller that reuses
// dst's capacity encodes with zero allocations. Frames concatenate, so a
// write batch is built by calling AppendEnvelope repeatedly on the same
// buffer.
func AppendEnvelope(dst []byte, env *Envelope) []byte {
	mark := len(dst)
	dst = appendPayload(dst, env)
	n := len(dst) - mark
	var pre [binary.MaxVarintLen64]byte
	pn := binary.PutUvarint(pre[:], uint64(n))
	// Make room for the prefix, shift the payload right (overlapping
	// copy is a memmove), then lay the prefix down in front of it.
	dst = append(dst, pre[:pn]...)
	copy(dst[mark+pn:], dst[mark:mark+n])
	copy(dst[mark:], pre[:pn])
	return dst
}

func appendPayload(dst []byte, env *Envelope) []byte {
	var flags byte
	if env.Response != nil {
		flags |= flagResponse
	}
	if env.Result != nil {
		flags |= flagResult
	}
	if env.Stats != nil {
		flags |= flagStats
	}
	if env.Trace != nil {
		flags |= flagTrace
	}
	dst = append(dst, binType(env.Type), flags)
	if env.Response != nil {
		dst = appendResponse(dst, env.Response)
	}
	if env.Result != nil {
		dst = appendResult(dst, env.Result)
	}
	if env.Stats != nil {
		st := env.Stats
		dst = binary.AppendVarint(dst, st.Decided)
		dst = binary.AppendVarint(dst, st.Valid)
		dst = binary.AppendVarint(dst, st.Faults)
		dst = binary.AppendVarint(dst, st.Timeouts)
		dst = binary.AppendVarint(dst, int64(st.Pending))
	}
	if env.Trace != nil {
		dst = appendStr(dst, env.Trace.Origin)
		dst = binary.AppendVarint(dst, env.Trace.BaseNS)
	}
	return dst
}

func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func appendResponse(dst []byte, r *core.Response) []byte {
	dst = binary.AppendVarint(dst, int64(r.Controller))
	dst = appendStr(dst, string(r.Trigger))
	dst = append(dst, byte(r.Kind), boolByte(r.Tainted))
	dst = binary.AppendVarint(dst, int64(r.Primary))
	dst = appendStr(dst, string(r.Cache))
	dst = append(dst, byte(r.Op))
	dst = appendStr(dst, r.Key)
	dst = appendStr(dst, r.Value)
	dst = binary.AppendUvarint(dst, uint64(r.DPID))
	dst = append(dst, byte(r.MsgType))
	dst = appendStr(dst, r.MsgBody)
	dst = binary.AppendVarint(dst, int64(r.WireLen))
	dst = binary.LittleEndian.AppendUint64(dst, r.StateDigest)
	dst = binary.AppendUvarint(dst, r.StateApplied)
	dst = appendStr(dst, r.Prev)
	dst = append(dst, boolByte(r.PrevOK))
	dst = binary.AppendVarint(dst, int64(r.At))
	return dst
}

func appendResult(dst []byte, r *core.Result) []byte {
	dst = appendStr(dst, string(r.Trigger))
	dst = append(dst, byte(r.Kind), byte(r.Verdict), byte(r.Fault))
	dst = binary.AppendVarint(dst, int64(r.Offender))
	dst = appendStr(dst, r.Reason)
	dst = binary.AppendVarint(dst, int64(r.Responses))
	dst = binary.AppendVarint(dst, int64(r.DetectionTime))
	dst = binary.AppendVarint(dst, int64(r.DecidedAt))
	dst = append(dst, boolByte(r.TimedOut))
	dst = binary.AppendUvarint(dst, uint64(len(r.Evidence)))
	for i := range r.Evidence {
		dst = appendResponse(dst, &r.Evidence[i])
	}
	return dst
}

// binCursor walks one frame payload. Every accessor sets err and returns
// a zero value on underflow, so decode code reads fields linearly and
// checks err once at the end.
type binCursor struct {
	b   []byte
	off int
	err bool
}

func (c *binCursor) u8() byte {
	if c.off >= len(c.b) {
		c.err = true
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *binCursor) uvarint() uint64 {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.err = true
		return 0
	}
	c.off += n
	return v
}

func (c *binCursor) varint() int64 {
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		c.err = true
		return 0
	}
	c.off += n
	return v
}

func (c *binCursor) fixed64() uint64 {
	if len(c.b)-c.off < 8 {
		c.err = true
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

func (c *binCursor) bool() bool { return c.u8() != 0 }

// str returns the next length-prefixed string BORROWED from the frame
// buffer via unsafe.String: no copy, no allocation, valid only as long
// as the buffer. BinDecoder's ownership contract covers the aliasing.
func (c *binCursor) str() string {
	n := c.uvarint()
	if c.err {
		return ""
	}
	if n > uint64(len(c.b)-c.off) {
		c.err = true
		return ""
	}
	if n == 0 {
		return ""
	}
	s := unsafe.String(&c.b[c.off], int(n))
	c.off += int(n)
	return s
}

// BinDecoder decodes binary frame payloads into a reusable envelope.
//
// Ownership contract: the returned envelope, its pointed-to bodies and
// every string in them BORROW from the decoder's scratch state and from
// the payload buffer passed to Decode. They are valid only until the
// next Decode call (or until the caller reuses the buffer). A caller
// that retains anything past that window — storing a Response in the
// validator, handing a Result to a callback — must deep-copy first with
// CloneResponse/CloneResult. In exchange the steady-state decode path
// allocates nothing.
type BinDecoder struct {
	env      Envelope
	resp     core.Response
	res      core.Result
	stats    Stats
	trace    TraceContext
	evidence []core.Response
}

// Decode parses one frame payload (the bytes after the length prefix).
// See the type comment for the borrow contract on the returned envelope.
func (d *BinDecoder) Decode(buf []byte) (*Envelope, error) {
	cur := binCursor{b: buf}
	t := cur.u8()
	flags := cur.u8()
	typ, ok := typeFromBin(t)
	if cur.err || !ok {
		return nil, ErrMalformedFrame
	}
	d.env = Envelope{Type: typ}
	if flags&flagResponse != 0 {
		decodeResponse(&cur, &d.resp)
		d.env.Response = &d.resp
	}
	if flags&flagResult != 0 {
		d.decodeResult(&cur)
		d.env.Result = &d.res
	}
	if flags&flagStats != 0 {
		d.stats = Stats{
			Decided:  cur.varint(),
			Valid:    cur.varint(),
			Faults:   cur.varint(),
			Timeouts: cur.varint(),
			Pending:  int(cur.varint()),
		}
		d.env.Stats = &d.stats
	}
	if flags&flagTrace != 0 {
		d.trace = TraceContext{Origin: cur.str(), BaseNS: cur.varint()}
		d.env.Trace = &d.trace
	}
	if cur.err || cur.off != len(cur.b) {
		return nil, ErrMalformedFrame
	}
	return &d.env, nil
}

func decodeResponse(cur *binCursor, r *core.Response) {
	*r = core.Response{
		Controller: store.NodeID(cur.varint()),
		Trigger:    trigger.ID(cur.str()),
		Kind:       core.ResponseKind(cur.u8()),
		Tainted:    cur.bool(),
		Primary:    store.NodeID(cur.varint()),
		Cache:      store.CacheName(cur.str()),
		Op:         store.Op(cur.u8()),
		Key:        cur.str(),
		Value:      cur.str(),
		DPID:       topo.DPID(cur.uvarint()),
		MsgType:    openflow.MsgType(cur.u8()),
		MsgBody:    cur.str(),
		WireLen:    int(cur.varint()),
	}
	r.StateDigest = cur.fixed64()
	r.StateApplied = cur.uvarint()
	r.Prev = cur.str()
	r.PrevOK = cur.bool()
	r.At = time.Duration(cur.varint())
}

func (d *BinDecoder) decodeResult(cur *binCursor) {
	d.res = core.Result{
		Trigger:       trigger.ID(cur.str()),
		Kind:          trigger.Kind(cur.u8()),
		Verdict:       core.Verdict(cur.u8()),
		Fault:         core.FaultClass(cur.u8()),
		Offender:      store.NodeID(cur.varint()),
		Reason:        cur.str(),
		Responses:     int(cur.varint()),
		DetectionTime: time.Duration(cur.varint()),
		DecidedAt:     time.Duration(cur.varint()),
		TimedOut:      cur.bool(),
	}
	n := cur.uvarint()
	// Each evidence response costs at least a dozen bytes; bounding the
	// claimed count by the remaining payload stops a hostile count from
	// sizing anything.
	if n > uint64(len(cur.b)-cur.off) {
		cur.err = true
		return
	}
	d.evidence = d.evidence[:0]
	for i := uint64(0); i < n && !cur.err; i++ {
		var r core.Response
		decodeResponse(cur, &r)
		d.evidence = append(d.evidence, r)
	}
	if len(d.evidence) > 0 {
		d.res.Evidence = d.evidence
	}
}

// BinReader frames length-prefixed binary envelopes off one connection
// with the same per-error discipline as LineReader: an oversized frame
// is discarded by its declared length and reported as ErrFrameTooLong, a
// frame whose payload does not decode is reported as ErrMalformedFrame,
// and both leave the stream positioned at the next frame. Any other
// error is fatal to the stream (a corrupt length prefix cannot be
// resynchronized).
//
// The envelope returned by ReadEnvelope borrows from the reader's frame
// buffer and decoder scratch — valid only until the next call; see
// BinDecoder for the contract.
type BinReader struct {
	r   *bufio.Reader
	max int
	buf []byte
	dec BinDecoder
}

// NewBinReader frames r with a max payload of max bytes per frame.
// max <= 0 selects DefaultMaxLineBytes. An r that is already a
// *bufio.Reader is used directly rather than double-buffered.
func NewBinReader(r io.Reader, max int) *BinReader {
	if max <= 0 {
		max = DefaultMaxLineBytes
	}
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 64*1024)
	}
	return &BinReader{r: br, max: max}
}

// ReadEnvelope returns the next envelope. Errors are per frame where the
// framing allows it: after ErrFrameTooLong or ErrMalformedFrame the
// reader is positioned at the next frame.
func (br *BinReader) ReadEnvelope() (*Envelope, error) {
	n, err := binary.ReadUvarint(br.r)
	if err != nil {
		// io.EOF at a frame boundary is a clean close; anything else
		// (mid-varint cut, varint overflow) is unrecoverable.
		return nil, err
	}
	if n > uint64(br.max) {
		if err := br.discard(n); err != nil {
			return nil, err
		}
		return nil, ErrFrameTooLong
	}
	if uint64(cap(br.buf)) < n {
		br.buf = make([]byte, n)
	}
	buf := br.buf[:n]
	if _, err := io.ReadFull(br.r, buf); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return br.dec.Decode(buf)
}

// FrameBuffered reports whether a complete frame — length prefix and the
// whole payload it declares — is already in the reader's buffer, so that
// the next ReadEnvelope returns without touching the underlying reader.
// It never blocks and never reads: a caller holding decoded envelopes
// uses it to decide between decoding on and handing off what it has. An
// unreadable prefix reports false; ReadEnvelope then surfaces the error.
func (br *BinReader) FrameBuffered() bool {
	have := br.r.Buffered()
	if have == 0 {
		return false
	}
	head, _ := br.r.Peek(min(have, binary.MaxVarintLen64)) // within Buffered: no read
	n, k := binary.Uvarint(head)
	return k > 0 && n <= uint64(have-k)
}

// discard consumes an oversized frame's declared payload so the next
// ReadEnvelope starts cleanly.
func (br *BinReader) discard(n uint64) error {
	for n > 0 {
		chunk := n
		if chunk > 1<<20 {
			chunk = 1 << 20
		}
		if _, err := br.r.Discard(int(chunk)); err != nil {
			return err
		}
		n -= chunk
	}
	return nil
}

// CloneResponse deep-copies a decoded response so it can outlive the
// decoder's borrow window (BinDecoder's ownership contract).
func CloneResponse(r core.Response) core.Response {
	cloneStrings(&r)
	return r
}

// cloneStrings re-points every string of r at ONE freshly allocated
// backing string — one allocation per response instead of one per
// non-empty field. The fields are substrings of it, so whoever retains
// one keeps the response's whole text (a hundred-odd bytes) alive.
func cloneStrings(r *core.Response) {
	n := len(r.Trigger) + len(r.Cache) + len(r.Key) + len(r.Value) + len(r.MsgBody) + len(r.Prev)
	if n == 0 {
		return
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(string(r.Trigger))
	b.WriteString(string(r.Cache))
	b.WriteString(r.Key)
	b.WriteString(r.Value)
	b.WriteString(r.MsgBody)
	b.WriteString(r.Prev)
	text := b.String()
	cut := func(n int) string {
		s := text[:n]
		text = text[n:]
		return s
	}
	r.Trigger = trigger.ID(cut(len(r.Trigger)))
	r.Cache = store.CacheName(cut(len(r.Cache)))
	r.Key = cut(len(r.Key))
	r.Value = cut(len(r.Value))
	r.MsgBody = cut(len(r.MsgBody))
	r.Prev = cut(len(r.Prev))
}

// CloneResult deep-copies a decoded result (evidence included) past the
// decoder's borrow window.
func CloneResult(r core.Result) core.Result {
	r.Trigger = trigger.ID(strings.Clone(string(r.Trigger)))
	r.Reason = strings.Clone(r.Reason)
	if len(r.Evidence) > 0 {
		ev := make([]core.Response, len(r.Evidence))
		for i := range r.Evidence {
			ev[i] = CloneResponse(r.Evidence[i])
		}
		r.Evidence = ev
	}
	return r
}
