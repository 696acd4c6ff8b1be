// Package slab carves immutable strings out of shared byte slabs, so a
// writer that copies many short strings per second pays one allocation
// per slab instead of one per string.
package slab

import "unsafe"

// Size is the capacity of every slab Strings starts. It is a constant,
// not a setting: a slab holds a few dozen responses' strings, enough to
// make the per-response allocation a small fraction of one, while a
// string someone keeps pins no more than 4 KB.
const Size = 4 << 10

// Strings hands out strings cut from the unused tail of its current slab.
// Bytes once handed out are never written again — later strings only
// extend the slab — so a string stays valid and unchanged for as long as
// anyone holds it, and holding it keeps its whole slab alive. A piece
// that does not fit in what is left starts a new slab; a piece larger
// than Size gets a buffer of its own.
//
// A Strings has one writer: nothing in it is synchronized. The strings it
// returns may be read from any goroutine the writer hands them to.
type Strings struct {
	buf []byte // the current slab: buf[:len] handed out, buf[len:cap] free
}

// Exact returns a Strings whose first n bytes of strings land in one
// buffer of exactly n bytes, for a copy whose owner keeps it and must not
// pin a slab shared with anything else. Exact(0) allocates nothing.
func Exact(n int) Strings { return Strings{buf: make([]byte, 0, n)} }

// String returns a copy of p carved from the slab. The empty string
// costs nothing.
func (s *Strings) String(p string) string { return carve(s, p) }

// Bytes returns a string copy of p carved from the slab.
func (s *Strings) Bytes(p []byte) string { return carve(s, p) }

func carve[T string | []byte](s *Strings, p T) string {
	n := len(p)
	if n == 0 {
		return ""
	}
	if n > cap(s.buf)-len(s.buf) {
		if n > Size {
			return string(p)
		}
		s.buf = make([]byte, 0, Size)
	}
	start := len(s.buf)
	s.buf = append(s.buf, p...)
	return unsafe.String(&s.buf[start], n)
}
