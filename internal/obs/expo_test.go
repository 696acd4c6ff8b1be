package obs

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// testClock is a controllable wall clock for exposition tests.
type testClock struct{ now time.Time }

func (c *testClock) Now() time.Time { return c.now }

func newTestClock() *testClock {
	return &testClock{now: time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func TestExpoHandlerMetrics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("jury_validator_decided_total", "Triggers decided.").Add(9)
	clock := newTestClock()
	h, err := NewExpoHandler(ExpoConfig{Write: reg.WritePrometheus, Clock: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "jury_validator_decided_total 9") {
		t.Fatalf("metrics page missing counter:\n%s", rec.Body.String())
	}
}

func TestExpoHandlerHealthz(t *testing.T) {
	reg := NewRegistry()
	clock := newTestClock()
	h, err := NewExpoHandler(ExpoConfig{Write: reg.WritePrometheus, Clock: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	clock.now = clock.now.Add(1500 * time.Millisecond)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	want := "{\"status\":\"ok\",\"uptime_seconds\":1.500}\n"
	if rec.Body.String() != want {
		t.Fatalf("healthz = %q, want %q", rec.Body.String(), want)
	}
}

func TestExpoHandlerWriteError(t *testing.T) {
	clock := newTestClock()
	h, err := NewExpoHandler(ExpoConfig{
		Write: func(io.Writer) error { return errors.New("scrape raced the event loop") },
		Clock: clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
}

func TestExpoHandlerNeedsSource(t *testing.T) {
	if _, err := NewExpoHandler(ExpoConfig{}); err == nil {
		t.Fatal("handler without a Write func did not error")
	}
}

func TestServeExpoRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("jury_live_total", "").Add(3)
	e, err := ServeExpo("127.0.0.1:0", ExpoConfig{Write: reg.WritePrometheus})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := e.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	resp, err := http.Get("http://" + e.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "jury_live_total 3") {
		t.Fatalf("live scrape missing counter:\n%s", body)
	}
}
