package slab

import (
	"bytes"
	"math/rand"
	"testing"
	"unsafe"
)

// TestHandedOutStringsNeverChange carves pieces of random lengths —
// across many slab rollovers, with pieces larger than a slab and empty
// pieces mixed in — from one scratch buffer that is overwritten after
// every carve, and checks at the end that every string still reads what
// it was carved from.
func TestHandedOutStringsNeverChange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s Strings
	scratch := make([]byte, 3*Size)
	var got []string
	var want [][]byte
	big := 0
	for i := 0; i < 4000; i++ {
		var n int
		switch i % 50 {
		case 0:
			n = Size + 1 + rng.Intn(Size) // larger than a slab
			big++
		case 1:
			n = 0
		default:
			n = rng.Intn(300)
		}
		p := scratch[:n]
		rng.Read(p)
		want = append(want, bytes.Clone(p))
		if i%2 == 0 {
			got = append(got, s.Bytes(p))
		} else {
			got = append(got, s.String(unsafe.String(unsafe.SliceData(p), n)))
		}
		rng.Read(scratch) // the source changes under every string handed out
	}
	if big == 0 {
		t.Fatal("no piece larger than a slab was carved")
	}
	for i := range got {
		if got[i] != string(want[i]) {
			t.Fatalf("string %d (%d bytes) changed after it was handed out", i, len(want[i]))
		}
	}
}

// TestSlabAllocations pins what carving costs: nothing for an empty
// piece, one allocation per slab started, one for a piece larger than a
// slab (which leaves the current slab's tail to the next piece), and one
// for an Exact copy whose pieces then sit back to back.
func TestSlabAllocations(t *testing.T) {
	var s Strings
	if got := testing.AllocsPerRun(100, func() { _ = s.String("") }); got != 0 || s.buf != nil {
		t.Fatalf("an empty piece costs %v allocations and started a slab: %v", got, s.buf != nil)
	}

	piece := string(make([]byte, Size/4))
	if got := testing.AllocsPerRun(10, func() {
		for range 4 * 4 { // four slabs' worth: four rollovers
			_ = s.String(piece)
		}
	}); got != 4 {
		t.Errorf("16 quarter-slab pieces cost %v allocations, want 4 (one per slab)", got)
	}

	s = Strings{}
	a := s.String("a")
	huge := s.String(string(make([]byte, Size+1)))
	b := s.String("b")
	if unsafe.StringData(b) != (*byte)(unsafe.Add(unsafe.Pointer(unsafe.StringData(a)), 1)) {
		t.Error("a piece larger than a slab moved the next piece off the current slab")
	}
	if len(huge) != Size+1 {
		t.Errorf("a piece larger than a slab came back %d bytes long", len(huge))
	}

	parts := []string{"trigger", "", "key", "value"}
	if got := testing.AllocsPerRun(100, func() {
		e := Exact(len("triggerkeyvalue"))
		for _, p := range parts {
			_ = e.String(p)
		}
	}); got != 1 {
		t.Errorf("an Exact copy costs %v allocations, want 1", got)
	}
	if got := testing.AllocsPerRun(100, func() { _ = Exact(0) }); got != 0 {
		t.Errorf("Exact(0) costs %v allocations, want 0", got)
	}
	e := Exact(len("triggerkeyvalue"))
	first, _, key := e.String(parts[0]), e.String(parts[1]), e.String(parts[2])
	if unsafe.StringData(key) != (*byte)(unsafe.Add(unsafe.Pointer(unsafe.StringData(first)), len(first))) {
		t.Error("an Exact copy's pieces are not back to back in one buffer")
	}
}
