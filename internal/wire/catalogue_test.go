package wire

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateCatalogue = flag.Bool("update", false, "rewrite testdata/metric_catalogue.golden from this tree's server")

// catalogue reduces a Prometheus text page to its shape: one line per
// family with the family's name, its # TYPE and the sorted label keys its
// samples carry (a summary's _sum/_count samples belong to their family).
// Values are dropped, so the result is the same at every plane width.
func catalogue(page string) string {
	kinds := make(map[string]string)
	keys := make(map[string]map[string]bool)
	var fam string
	for _, line := range strings.Split(page, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			fam = name
			kinds[fam] = kind
			keys[fam] = make(map[string]bool)
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		_, labels, ok := strings.Cut(name, "{")
		if !ok {
			continue
		}
		for _, kv := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
			k, _, _ := strings.Cut(kv, "=")
			keys[fam][k] = true
		}
	}
	names := make([]string, 0, len(kinds))
	for name := range kinds {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		ks := make([]string, 0, len(keys[name]))
		for k := range keys[name] {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		b.WriteString(strings.TrimSpace(name+" "+kinds[name]+" "+strings.Join(ks, ",")) + "\n")
	}
	return b.String()
}

// TestServerMetricCatalogue pins the service's /metrics catalogue — every
// family name, its kind and its label keys — at one and four shards.
// Consumers scrape families by name, so a family that disappears, changes
// kind or changes labels is a breaking change, whatever the values say.
func TestServerMetricCatalogue(t *testing.T) {
	path := filepath.Join("testdata", "metric_catalogue.golden")
	for _, shards := range []int{1, 4} {
		h := startSvc(t, ServerConfig{Shards: shards, Tracing: true})
		h.runScript()
		h.barrier()
		var page bytes.Buffer
		if err := h.s.WriteMetrics(&page); err != nil {
			t.Fatal(err)
		}
		got := catalogue(page.String())
		if *updateCatalogue && shards == 1 {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read golden (capture with -update): %v", err)
		}
		if got != string(want) {
			t.Errorf("shards=%d catalogue differs from %s:\ngot:\n%s\nwant:\n%s", shards, path, got, want)
		}
	}
}
