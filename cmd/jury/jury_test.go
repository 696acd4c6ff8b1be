package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	jury "github.com/jurysdn/jury"
	"github.com/jurysdn/jury/internal/core"
	"github.com/jurysdn/jury/internal/obs"
	"github.com/jurysdn/jury/internal/store"
	"github.com/jurysdn/jury/internal/trigger"
	"github.com/jurysdn/jury/internal/wire"
)

// TestCommands drives every subcommand through dispatch, checking the
// exit status and what it reports.
func TestCommands(t *testing.T) {
	dir := t.TempDir()
	spans := func(name string, s ...obs.Span) string {
		path := filepath.Join(dir, name)
		if err := writeFile(path, func(w io.Writer) error { return obs.WriteSpansJSONL(w, s) }); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := spans("a.jsonl", obs.Span{Seq: 1, Trigger: "τ", Name: "validate", Node: "validator", StartNS: 2, DurNS: 3})
	b := spans("b.jsonl", obs.Span{Seq: 1, Trigger: "τ", Name: "flow-mod", Node: "C1", StartNS: 0, DurNS: 5})
	merged := filepath.Join(dir, "merged.jsonl")

	type row struct {
		name string
		args []string
		code int
		// want lists substrings of stdout (of file, when set) on success
		// and of stderr on failure.
		want []string
		file string
	}
	rows := []row{
		{name: "bare", code: 2, want: []string{"commands:", "serve", "lint"}},
		{name: "unknown command", args: []string{"nope"}, code: 2, want: []string{`unknown command "nope"`, "trace"}},
		{name: "fig policy", args: []string{"fig", "-fig", "policy"}, want: []string{"# Policy validation cost", "10000\t"}},
		{name: "fig unknown", args: []string{"fig", "-fig", "nope"}, code: 2, want: []string{`unknown figure "nope"`}},
		{name: "live past 256 flows", args: []string{"live", "-switches", "1", "-flows", "300"}, want: []string{"OK: 300 reactive flow rules"}},
		{name: "live flows too many", args: []string{"live", "-flows", "60000"}, code: 2, want: []string{"-flows 60000 out of range"}},
		{
			name: "trace chrome",
			args: []string{"trace", "a=" + a, "b=5=" + b},
			want: []string{`"traceEvents"`, `"name":"process_name","args":{"name":"a"}`, `"name":"flow-mod"`},
		},
		{
			name: "trace jsonl to file",
			args: []string{"trace", "-jsonl", "-out", merged, "a=" + a, "b=5=" + b},
			want: []string{`"name":"flow-mod","node":"C1","start_ns":5,"dur_ns":5,"origin":"b"`, `"origin":"a"`},
			file: merged,
		},
		{name: "trace bad shift", args: []string{"trace", "b=soon=" + b}, code: 2, want: []string{"shift"}},
		{name: "trace no inputs", args: []string{"trace"}, code: 2, want: []string{"no inputs"}},
		{name: "lint filtered clean", args: []string{"lint", "cmd/jury"}},
		{name: "lint unmatched filter", args: []string{"lint", "internal/nosuchpkg"}, code: 2, want: []string{`"internal/nosuchpkg" matches no package`}},
	}
	for _, c := range commands {
		rows = append(rows,
			row{name: c.name + " help", args: []string{c.name, "-h"}},
			row{name: c.name + " bad flag", args: []string{c.name, "-no-such-flag"}, code: 2, want: []string{"-no-such-flag"}})
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if code := dispatch(context.Background(), r.args, &stdout, &stderr); code != r.code {
				t.Fatalf("jury %q exited %d, want %d\nstdout:\n%s\nstderr:\n%s", r.args, code, r.code, stdout.String(), stderr.String())
			}
			got := stdout.String()
			if r.code != 0 {
				got = stderr.String()
			} else if r.file != "" {
				b, err := os.ReadFile(r.file)
				if err != nil {
					t.Fatal(err)
				}
				got = string(b)
			}
			for _, w := range r.want {
				if !strings.Contains(got, w) {
					t.Errorf("jury %q: output lacks %q:\n%s", r.args, w, got)
				}
			}
		})
	}
}

// syncBuffer collects output that serve's plane workers write while the
// test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestServe runs the validator service in-process: it decides a valid
// and a faulty trigger from a wire client, and on cancellation reports
// both in its shutdown line, lists the alarm and writes the trace.
func TestServe(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	out := &syncBuffer{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- runServe(ctx, []string{"-listen", "127.0.0.1:0", "-k", "2", "-members", "3", "-shards", "2",
			"-stats-every", "0", "-trace-out", trace}, out)
	}()

	addrRe := regexp.MustCompile(`validating on (\S+) `)
	var addr string
	waitUntil(context.Background(), 5*time.Second, func() bool {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
		}
		return addr != ""
	})
	if addr == "" {
		cancel()
		t.Fatalf("serve never reported its address: %v\n%s", <-done, out.String())
	}

	results := make(chan core.Result, 2)
	c, err := wire.DialConfig(addr, wire.ClientConfig{OnResult: func(r core.Result) { results <- r }})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	send := func(ctrl store.NodeID, trig string, kind core.ResponseKind, value string) {
		err := c.Send(core.Response{
			Controller: ctrl, Primary: 1, Trigger: trigger.ID(trig), Kind: kind, Tainted: kind == core.SecondaryExec,
			Cache: store.LinksDB, Op: store.OpCreate, Key: "k", Value: value, StateDigest: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct{ id, primary string }{{"ok", "up"}, {"bad", "down"}} {
		send(1, tc.id, core.CacheUpdate, tc.primary)
		send(2, tc.id, core.SecondaryExec, "up")
		send(3, tc.id, core.SecondaryExec, "up")
	}
	verdicts := map[string]core.Verdict{}
	for len(verdicts) < 2 {
		select {
		case r := <-results:
			verdicts[string(r.Trigger)] = r.Verdict
		case <-time.After(5 * time.Second):
			t.Fatalf("got verdicts %v, want two\n%s", verdicts, out.String())
		}
	}
	if verdicts["ok"] != core.VerdictValid || verdicts["bad"] != core.VerdictFault {
		t.Fatalf("verdicts = %v, want ok valid and bad faulty", verdicts)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
	log := out.String()
	for _, w := range []string{"shutting down — 2 decided, 1 valid, 1 alarms", "trace -> " + trace} {
		if !strings.Contains(log, w) {
			t.Errorf("serve output lacks %q:\n%s", w, log)
		}
	}
	if !regexp.MustCompile(`(?m)^ALARM: .* trigger=bad `).MatchString(log) {
		t.Errorf("serve output lists no alarm for trigger bad:\n%s", log)
	}
	if fi, err := os.Stat(trace); err != nil || fi.Size() == 0 {
		t.Errorf("%s not written: %v", trace, err)
	}
}

// TestClientsAgainstValidator streams a live run's egress FLOW_MODs to
// an in-test validator service and checks that both ends counted the
// decisions.
func TestClientsAgainstValidator(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "controller.jsonl")
	t.Run("live", func(t *testing.T) {
		srv, err := jury.ServeValidator("127.0.0.1:0", jury.ValidatorServiceConfig{ClusterSize: 3, K: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		var out strings.Builder
		args := []string{"-validator", srv.Addr(), "-validator-k", "2", "-codec", "binary", "-switches", "2", "-flows", "5", "-trace-out", trace}
		if err := runLive(context.Background(), args, &out); err != nil {
			t.Fatalf("%v\n%s", err, out.String())
		}
		m := regexp.MustCompile(`(?m)^validator: decided=(\d+) `).FindStringSubmatch(out.String())
		if m == nil {
			t.Fatalf("no validator stats line:\n%s", out.String())
		}
		if n, _ := strconv.Atoi(m[1]); n == 0 || srv.Stats().Decided == 0 {
			t.Fatalf("client saw %s decided, server %d; want both > 0\n%s", m[1], srv.Stats().Decided, out.String())
		}
		for _, w := range []string{"OK: 10 reactive flow rules", "controller trace -> " + trace} {
			if !strings.Contains(out.String(), w) {
				t.Errorf("output lacks %q:\n%s", w, out.String())
			}
		}
	})
}
