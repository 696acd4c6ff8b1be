package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"github.com/jurysdn/jury/internal/core"
)

func TestLineReaderBasicLines(t *testing.T) {
	lr := NewLineReader(strings.NewReader("one\ntwo\r\n\nthree"), 64)
	want := []string{"one", "two", "", "three"}
	for _, w := range want {
		line, err := lr.ReadLine()
		if err != nil {
			t.Fatalf("ReadLine(%q): %v", w, err)
		}
		if string(line) != w {
			t.Fatalf("line = %q, want %q", line, w)
		}
	}
	if _, err := lr.ReadLine(); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestLineReaderOversizedLineIsSkippedNotFatal(t *testing.T) {
	big := strings.Repeat("x", 300)
	lr := NewLineReader(strings.NewReader("ok\n"+big+"\nafter\n"), 100)
	if line, err := lr.ReadLine(); err != nil || string(line) != "ok" {
		t.Fatalf("first = %q, %v", line, err)
	}
	if _, err := lr.ReadLine(); !errors.Is(err, ErrLineTooLong) {
		t.Fatalf("expected ErrLineTooLong, got %v", err)
	}
	// The stream continues at the next line: the oversized one was
	// consumed, not left to poison subsequent reads.
	if line, err := lr.ReadLine(); err != nil || string(line) != "after" {
		t.Fatalf("after = %q, %v", line, err)
	}
}

func TestLineReaderOversizedSpansManyBuffers(t *testing.T) {
	// Line far larger than the internal buffer: the discard loop must
	// walk multiple buffer fills.
	big := strings.Repeat("y", 1<<18)
	lr := NewLineReader(strings.NewReader(big+"\nnext\n"), 1024)
	if _, err := lr.ReadLine(); !errors.Is(err, ErrLineTooLong) {
		t.Fatalf("expected ErrLineTooLong, got %v", err)
	}
	if line, err := lr.ReadLine(); err != nil || string(line) != "next" {
		t.Fatalf("next = %q, %v", line, err)
	}
}

func TestLineReaderFinalUnterminatedLine(t *testing.T) {
	lr := NewLineReader(strings.NewReader("partial"), 64)
	line, err := lr.ReadLine()
	if err != nil || string(line) != "partial" {
		t.Fatalf("line = %q, %v", line, err)
	}
	if _, err := lr.ReadLine(); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestLineReaderExactCap(t *testing.T) {
	payload := strings.Repeat("z", 100)
	lr := NewLineReader(strings.NewReader(payload+"\n"), 100)
	line, err := lr.ReadLine()
	if err != nil || string(line) != payload {
		t.Fatalf("exact-cap line rejected: %q, %v", line, err)
	}
	lr = NewLineReader(strings.NewReader(payload+"q\n"), 100)
	if _, err := lr.ReadLine(); !errors.Is(err, ErrLineTooLong) {
		t.Fatalf("cap+1 accepted: %v", err)
	}
}

type errReader struct {
	data []byte
	err  error
}

func (r *errReader) Read(p []byte) (int, error) {
	if len(r.data) > 0 {
		n := copy(p, r.data)
		r.data = r.data[n:]
		return n, nil
	}
	return 0, r.err
}

func TestLineReaderSurfacesReadErrors(t *testing.T) {
	boom := errors.New("boom")
	lr := NewLineReader(&errReader{data: []byte("good\nbad"), err: boom}, 64)
	if line, err := lr.ReadLine(); err != nil || string(line) != "good" {
		t.Fatalf("good = %q, %v", line, err)
	}
	// The truncated tail is dropped (it cannot be a complete line) and
	// the underlying error surfaces — never a silent end of stream.
	if _, err := lr.ReadLine(); !errors.Is(err, boom) {
		t.Fatalf("expected boom, got %v", err)
	}
}

func TestLineReaderLargeLineWithinCap(t *testing.T) {
	// Larger than the 64KiB internal buffer but within the cap: must be
	// reassembled across buffer fills.
	payload := bytes.Repeat([]byte("a"), 200*1024)
	lr := NewLineReader(bytes.NewReader(append(payload, '\n')), DefaultMaxLineBytes)
	line, err := lr.ReadLine()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(line, payload) {
		t.Fatalf("reassembled line corrupted: len=%d want %d", len(line), len(payload))
	}
}

// FuzzLineReader drives arbitrary byte streams, delivered in arbitrary
// chunk sizes, through the JSON side of the framing seam (LineReader plus
// envelope decode) and its complete-line check. It must never panic; a
// line reported complete must then be returned without touching the
// underlying reader; every line — accepted, oversized or malformed — must
// leave the reader at the start of the next one; and the verdict on each
// line must be the one its bytes call for: oversized past the cap,
// otherwise malformed exactly when encoding/json rejects it.
func FuzzLineReader(f *testing.F) {
	r := resp(1, "τm", core.CacheUpdate, false, "up")
	valid, err := json.Marshal(Envelope{Type: TypeResponse, Response: &r})
	if err != nil {
		f.Fatal(err)
	}
	valid = append(valid, '\n')
	for _, seed := range []string{
		// The TestLineReader* tables.
		"one\ntwo\r\n\nthree",
		"ok\n" + strings.Repeat("x", 300) + "\nafter\n",
		strings.Repeat("y", 1<<12) + "\nnext\n",
		"partial",
		strings.Repeat("z", 48) + "\n" + strings.Repeat("z", 49) + "\n",
		"good\nbad",
		// The garbage lines of TestServerToleratesGarbageLines and
		// TestServerToleratesInjectedGarbageMidStream, between good ones.
		"this is not json\n{\"type\":\"bogus\"}\n",
		string(valid) + "\x00\x01garbage{{{\n" + string(valid) + "not json either\n" + string(valid),
		string(valid[:40]), // a line torn mid-envelope
		"{\"type\":\"stats\"}\r\n{\"type\":\"ping\"}\n\n",
	} {
		f.Add([]byte(seed), uint8(7))
		f.Add([]byte(seed), uint8(255))
	}
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		const maxLine = 48
		src := &chunkReader{data: data, n: int(chunk) + 1}
		buffered := bufio.NewReaderSize(src, 64)
		rd := CodecJSON.newReader(buffered, maxLine)
		consumed := 0 // bytes of data the lines returned so far cover
		for {
			complete := rd.FrameBuffered()
			reads := src.reads
			env, err := rd.ReadEnvelope()
			perLine := err == nil || isOversize(err) || isMalformed(err)
			if complete && (!perLine || src.reads != reads) {
				t.Fatalf("line reported complete, then ReadEnvelope read %d more times and returned %v", src.reads-reads, err)
			}
			if !perLine {
				if consumed != len(data) {
					t.Fatalf("stream ended with %v at byte %d of %d", err, consumed, len(data))
				}
				return
			}
			start := consumed
			if i := bytes.IndexByte(data[start:], '\n'); i >= 0 {
				consumed += i + 1
			} else {
				consumed = len(data)
			}
			if start == consumed {
				t.Fatalf("ReadEnvelope returned %v past the end of the stream", err)
			}
			if got := len(data) - len(src.data) - buffered.Buffered(); got != consumed {
				t.Fatalf("reader consumed %d bytes, the lines so far end at %d", got, consumed)
			}
			line := trimEOL(data[start:consumed])
			var want Envelope
			switch {
			case len(line) > maxLine:
				if !isOversize(err) {
					t.Fatalf("%d-byte line over the %d-byte cap returned %v", len(line), maxLine, err)
				}
			case len(line) > 0 && json.Unmarshal(line, &want) != nil:
				if !isMalformed(err) {
					t.Fatalf("line %q that encoding/json rejects returned %v", line, err)
				}
			case err != nil:
				t.Fatalf("line %q returned %v", line, err)
			case !reflect.DeepEqual(env, &want):
				t.Fatalf("line %q decoded to %+v, want %+v", line, env, want)
			}
		}
	})
}
