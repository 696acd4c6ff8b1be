package wire

import (
	"fmt"
	"sync"
)

// Codec selects a client's wire encoding. The protocol self-describes per
// connection: a binary client sends the single handshake byte BinMagic
// before its first frame, and a JSON client's first byte is never BinMagic
// (JSON lines start with '{' or whitespace), so the server mirrors
// whichever codec each client speaks with no configuration. Pushes that
// race ahead of a client's first byte are JSON.
type Codec uint8

// Client codecs.
const (
	// CodecJSON, the zero value, is the newline-delimited JSON protocol
	// (the original codec, and what every pre-binary peer speaks).
	CodecJSON Codec = iota
	// CodecBinary is the length-prefixed binary framing: the client sends
	// the handshake byte at connect and speaks frames both ways.
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

// ParseCodec parses a -codec flag value: "json" or "binary".
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "json":
		return CodecJSON, nil
	case "binary":
		return CodecBinary, nil
	default:
		return CodecJSON, fmt.Errorf("wire: unknown codec %q (want json or binary)", s)
	}
}

// String names the codec.
func (c Codec) String() string {
	if c == CodecBinary {
		return "binary"
	}
	return "json"
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
