package wire

import (
	"fmt"
	"sync"
)

// Codec selects the wire encoding of one connection or one endpoint's
// stance toward it. The protocol self-describes per connection: a binary
// peer sends the single handshake byte BinMagic before its first frame,
// and a JSON peer's first byte is never BinMagic (JSON lines start with
// '{' or whitespace), so a server can mirror whichever codec each client
// speaks with no out-of-band configuration.
type Codec uint8

// Codec stances.
const (
	// CodecAuto is the zero-value compat default. On a server it means
	// "mirror each connection's first byte": a BinMagic handshake flips
	// the connection to binary frames, anything else keeps JSON lines,
	// and pushes sent before the first byte arrives use JSON. On a
	// client it is equivalent to CodecJSON.
	CodecAuto Codec = iota
	// CodecJSON is the newline-delimited JSON protocol (the original
	// codec, and what every pre-binary peer speaks). A server configured
	// CodecJSON is strict: it refuses the binary handshake (counted on
	// jury_wire_line_errors_total{reason="codec"}) instead of parsing
	// frames as garbled lines.
	CodecJSON
	// CodecBinary is the length-prefixed binary framing. A client sends
	// the handshake byte at connect and speaks frames both ways; a
	// server additionally speaks binary on pushes that race ahead of the
	// peer's first byte (JSON peers are still mirrored once they speak).
	CodecBinary
)

// BinMagic is the one-byte codec handshake a binary client writes before
// its first frame. It can never begin a JSON protocol line: encoding/json
// output starts with '{' (0x7B), so an old JSON-only peer is never
// mistaken for a binary one. Exported for protocol tooling; production
// peers never write it by hand — Client and Server speak the handshake
// automatically.
const BinMagic = 0xBF

// binHandshake is the handshake write, shared so every (re)connect does
// not allocate it.
var binHandshake = []byte{BinMagic}

// ParseCodec parses a -codec flag value: "auto", "json" or "binary".
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "auto", "":
		return CodecAuto, nil
	case "json":
		return CodecJSON, nil
	case "binary":
		return CodecBinary, nil
	default:
		return CodecAuto, fmt.Errorf("wire: unknown codec %q (want auto, json or binary)", s)
	}
}

// String names the codec.
func (c Codec) String() string {
	switch c {
	case CodecJSON:
		return "json"
	case CodecBinary:
		return "binary"
	default:
		return "auto"
	}
}

// framePool recycles binary encode buffers across batches and
// connections, so the steady-state encode path allocates nothing: the
// client's writer takes one per batch and the pool keeps capacity warm
// across reconnects and across clients in one process.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// getFrameBuf leases an empty encode buffer from the pool.
func getFrameBuf() *[]byte {
	return framePool.Get().(*[]byte)
}

// putFrameBuf returns a buffer to the pool. Buffers that grew past a
// megabyte are dropped instead, so one oversized batch cannot pin its
// high-water mark forever.
func putFrameBuf(b *[]byte) {
	if cap(*b) > 1<<20 {
		return
	}
	*b = (*b)[:0]
	framePool.Put(b)
}
