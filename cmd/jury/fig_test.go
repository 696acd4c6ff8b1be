package main

import (
	"errors"
	"testing"
	"time"

	"github.com/jurysdn/jury/internal/sweep"
)

// TestProgressLine pins the -progress line format: the ETA is rounded to
// seconds first and shown only when that leaves it positive.
func TestProgressLine(t *testing.T) {
	key := `{"k":2}`
	for _, tc := range []struct {
		ev   sweep.Event
		want string
	}{
		{sweep.Event{Started: true, Key: key}, `juryfig: run {"k":2}`},
		{sweep.Event{Key: key, Done: 1, Total: 4, ETA: 3 * time.Second}, `juryfig: [1/4] done {"k":2} (eta 3s)`},
		{sweep.Event{Key: key, Done: 2, Total: 4, ETA: 1499 * time.Millisecond}, `juryfig: [2/4] done {"k":2} (eta 1s)`},
		{sweep.Event{Key: key, Done: 2, Total: 4, ETA: 499 * time.Millisecond}, `juryfig: [2/4] done {"k":2}`},
		{sweep.Event{Key: key, Done: 3, Total: 4, Cached: true, ETA: 500 * time.Millisecond}, `juryfig: [3/4] cached {"k":2} (eta 1s)`},
		{sweep.Event{Key: key, Done: 4, Total: 4, Err: errors.New("boom")}, `juryfig: [4/4] FAILED {"k":2}`},
	} {
		if got := progressLine(tc.ev); got != tc.want {
			t.Errorf("progressLine(%+v) = %q, want %q", tc.ev, got, tc.want)
		}
	}
}
