// Package wire mimics the concurrent bridge layer for the driver golden
// test: a mutex-guarded hub, which is outside the sim contract and so
// draws no diagnostic.
package wire

import "sync"

// Hub fans results out to subscribers.
type Hub struct {
	mu   sync.Mutex
	subs []string // guarded by mu
}

// Add registers a subscriber under the lock.
func (h *Hub) Add(s string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.subs = append(h.subs, s)
}
