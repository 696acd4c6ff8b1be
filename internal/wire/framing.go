package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
)

// The framing seam: each codec is one envReader for the inbound side and
// one append function for the outbound side, so Server and Client each
// keep a single read loop and a single encode path, and a connection's
// codec is consulted only where its framing is chosen.

// envReader is the inbound half of the seam: one codec's reader of the
// envelopes arriving on a connection. BinReader implements it for binary
// frames, jsonReader for JSON lines.
type envReader interface {
	// ReadEnvelope returns the next envelope, valid until the next call.
	// An oversized or malformed envelope (see isOversize, isMalformed) is
	// rejected on its own and leaves the reader at the next one; any
	// other error ends the stream.
	ReadEnvelope() (*Envelope, error)
	// FrameBuffered reports whether a complete envelope is already
	// buffered, so the next ReadEnvelope returns without touching the
	// connection. It never blocks.
	FrameBuffered() bool
	// borrows reports whether returned envelopes' strings alias the
	// reader's buffer (BinDecoder's ownership contract): whoever retains
	// one past the next call copies it first.
	borrows() bool
}

// newReader frames a connection's inbound bytes in codec c, with max
// bytes per line or frame.
func (c Codec) newReader(r io.Reader, max int) envReader {
	if c == CodecBinary {
		return NewBinReader(r, max)
	}
	return &jsonReader{lr: NewLineReader(r, max)}
}

// appendEnv is the outbound half of the seam: it appends env to dst in
// codec c. Every caller's envelopes go through this one static call, which
// keeps them on the stack (an indirect call would move them to the heap).
func (c Codec) appendEnv(dst []byte, env *Envelope) []byte {
	if c == CodecBinary {
		return AppendEnvelope(dst, env)
	}
	return appendJSONLine(dst, env)
}

// errMalformedLine reports a protocol line that is not a JSON envelope.
// The line was consumed, so the stream stays usable.
var errMalformedLine = errors.New("wire: malformed JSON line")

// isOversize reports a line or frame rejected for exceeding the cap.
func isOversize(err error) bool {
	return errors.Is(err, ErrLineTooLong) || errors.Is(err, ErrFrameTooLong)
}

// isMalformed reports a well-framed line or frame that did not decode.
func isMalformed(err error) bool {
	return errors.Is(err, errMalformedLine) || errors.Is(err, ErrMalformedFrame)
}

// jsonReader decodes newline-delimited JSON envelopes. An empty line
// decodes to an envelope of no type, which both endpoints ignore.
type jsonReader struct {
	lr  *LineReader
	env Envelope
}

func (jr *jsonReader) ReadEnvelope() (*Envelope, error) {
	line, err := jr.lr.ReadLine()
	if err != nil {
		return nil, err
	}
	jr.env = Envelope{} // decoding into the last envelope would merge into it
	if len(line) > 0 && json.Unmarshal(line, &jr.env) != nil {
		return nil, errMalformedLine
	}
	return &jr.env, nil
}

// FrameBuffered reports whether a whole line, newline included, is
// buffered: ReadLine then finds it without reading. A final unterminated
// line is not reported — telling it complete needs the EOF a read would
// bring.
func (jr *jsonReader) FrameBuffered() bool {
	buf, _ := jr.lr.r.Peek(jr.lr.r.Buffered()) // within Buffered: no read
	return bytes.IndexByte(buf, '\n') >= 0
}

func (jr *jsonReader) borrows() bool { return false }

// appendJSONLine appends env as one JSON protocol line, byte for byte what
// json.Encoder writes. encoding/json takes an interface, which would make
// every caller's envelope escape to the heap on the binary path too, so
// the line is built from copies: the bodies by value, the type through its
// wire byte (escape analysis does not tell a struct's fields apart —
// copying the type string alone would count as leaking the body pointers
// beside it).
func appendJSONLine(dst []byte, env *Envelope) []byte {
	var line Envelope
	line.Type, _ = typeFromBin(binType(env.Type))
	if env.Response != nil {
		r := *env.Response
		line.Response = &r
	}
	if env.Result != nil {
		r := *env.Result
		line.Result = &r
	}
	if env.Stats != nil {
		st := *env.Stats
		line.Stats = &st
	}
	if env.Trace != nil {
		tc := *env.Trace
		line.Trace = &tc
	}
	b, err := json.Marshal(&line)
	if err != nil {
		return dst // unreachable: every envelope body marshals
	}
	return append(append(dst, b...), '\n')
}

// ErrLineTooLong reports a protocol line whose payload exceeded the
// reader's MaxLineBytes cap. The oversized line is consumed, so the
// stream stays usable: callers count the error and keep reading.
var ErrLineTooLong = errors.New("wire: line exceeds MaxLineBytes")

// LineReader frames newline-delimited protocol lines with an explicit
// size cap. It replaces the bare bufio.Scanner loop whose buffer
// overflow (or any read error) silently ended the stream: here every
// failure surfaces as a distinct error per call.
//
//   - A line within the cap is returned with its trailing newline (and
//     optional carriage return) stripped.
//   - A line over the cap is discarded up to its newline and reported as
//     ErrLineTooLong; the next call continues with the following line.
//   - A final unterminated line at EOF is returned as a normal line; the
//     next call reports io.EOF.
type LineReader struct {
	r   *bufio.Reader
	max int
}

// NewLineReader frames r with a max payload of max bytes per line
// (excluding the line terminator). max <= 0 selects DefaultMaxLineBytes.
// An r that is already an adequately sized *bufio.Reader is used
// directly (the codec handshake peeks through one) rather than
// double-buffered.
func NewLineReader(r io.Reader, max int) *LineReader {
	if max <= 0 {
		max = DefaultMaxLineBytes
	}
	size := 64 * 1024
	if max < size {
		size = max + 1
	}
	if size < 16 {
		size = 16
	}
	if br, ok := r.(*bufio.Reader); ok && br.Size() >= size {
		return &LineReader{r: br, max: max}
	}
	return &LineReader{r: bufio.NewReaderSize(r, size), max: max}
}

// ReadLine returns the next line. Errors are per line, not per stream:
// after ErrLineTooLong the reader is positioned at the next line.
func (lr *LineReader) ReadLine() ([]byte, error) {
	var line []byte
	for {
		chunk, err := lr.r.ReadSlice('\n')
		line = append(line, chunk...)
		switch {
		case err == nil, errors.Is(err, io.EOF) && len(line) > 0:
			// A final unterminated line is delivered too; EOF surfaces on
			// the next call.
			if len(trimEOL(line)) > lr.max {
				return nil, ErrLineTooLong
			}
			return trimEOL(line), nil
		case errors.Is(err, bufio.ErrBufferFull):
			if len(line) > lr.max {
				return nil, lr.discardRest()
			}
		default:
			return nil, err
		}
	}
}

// discardRest consumes the remainder of an oversized line so the next
// ReadLine starts cleanly, then reports ErrLineTooLong. A read error
// while discarding is deferred to the next call.
func (lr *LineReader) discardRest() error {
	for {
		if _, err := lr.r.ReadSlice('\n'); !errors.Is(err, bufio.ErrBufferFull) {
			return ErrLineTooLong
		}
	}
}

// trimEOL strips one trailing "\n" or "\r\n".
func trimEOL(line []byte) []byte {
	line = bytes.TrimSuffix(line, []byte("\n"))
	return bytes.TrimSuffix(line, []byte("\r"))
}
