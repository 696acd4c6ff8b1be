package wire

import (
	"encoding/json"
	"io"
	"time"
)

// Stats is the hub's stats page. Uptime is a wall-clock span, rendered
// in nanoseconds.
type Stats struct {
	Subs   int           `json:"subs"`
	Uptime time.Duration `json:"uptime_ns"`
}

// WriteStats is deliberately wrong: it is an exported error-returning
// wire API in neither the curated list nor the waiver table
// (errcritsync). The lock discipline, by contrast, is correct: the
// guarded read happens between Lock and Unlock. (Keep WriteStats on
// line 21: the driver golden pins its position.)
func (h *Hub) WriteStats(w io.Writer) error {
	h.mu.Lock()
	n := len(h.subs)
	h.mu.Unlock()
	return json.NewEncoder(w).Encode(Stats{Subs: n, Uptime: time.Second})
}
