package obs

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"
)

// ExpoConfig parameterizes the exposition endpoint.
type ExpoConfig struct {
	// Write renders the /metrics page body, usually a registry's
	// WritePrometheus. Callers whose metrics are mutated on another
	// goroutine wrap the registry write in their own lock here (`jury
	// live` runs it on the controller's event loop).
	Write func(io.Writer) error
	// Clock supplies real time for the uptime report; nil selects the
	// host wall clock at this annotated real-time boundary. Tests inject
	// a fake clock so the handler output is deterministic.
	Clock func() time.Time
}

// Expo serves /metrics (Prometheus text format) and /healthz over HTTP.
// It is the only wall-clock-adjacent piece of the observability layer;
// everything it renders comes from the Write func or the injected clock.
type Expo struct {
	ln  net.Listener
	srv *http.Server

	closeOnce sync.Once
	done      sync.WaitGroup
}

// NewExpoHandler returns the HTTP handler serving /metrics and /healthz,
// for embedding into an existing mux or test server.
func NewExpoHandler(cfg ExpoConfig) (http.Handler, error) {
	if cfg.Write == nil {
		return nil, fmt.Errorf("obs: exposition needs a Write func")
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now //jurylint:allow wallclock -- default clock at the real-time boundary
	}
	started := cfg.Clock()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		var b strings.Builder
		if err := cfg.Write(&b); err != nil {
			http.Error(w, "metrics render failed: "+err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = io.WriteString(w, b.String())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		uptime := cfg.Clock().Sub(started).Seconds()
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"status\":\"ok\",\"uptime_seconds\":%.3f}\n", uptime)
	})
	return mux, nil
}

// ServeExpo starts the exposition endpoint on addr ("127.0.0.1:0" for an
// ephemeral port). The returned Expo owns a background goroutine; call
// Close.
func ServeExpo(addr string, cfg ExpoConfig) (*Expo, error) {
	handler, err := NewExpoHandler(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	e := &Expo{
		ln:  ln,
		srv: &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second},
	}
	e.done.Add(1)
	go func() {
		defer e.done.Done()
		_ = e.srv.Serve(ln) // always returns ErrServerClosed or the accept error after Close
	}()
	return e, nil
}

// Addr returns the bound listener address.
func (e *Expo) Addr() string { return e.ln.Addr().String() }

// Close shuts the endpoint down and waits for the serve goroutine.
func (e *Expo) Close() error {
	var err error
	e.closeOnce.Do(func() {
		err = e.srv.Close()
		e.done.Wait()
	})
	return err
}
