package faults_test

import (
	"testing"

	jury "github.com/jurysdn/jury"
	"github.com/jurysdn/jury/internal/faults"
)

// TestScenariosCatalogComplete pins the shape of the scenario table that
// arms these faults (jury.Catalog): one row per fault kind, with the
// paper's class and real/synthetic split. It is an external test so that
// package faults itself never imports the root package.
func TestScenariosCatalogComplete(t *testing.T) {
	rows := jury.Catalog()
	if len(rows) != 14 {
		t.Fatalf("catalog = %d rows, want 14", len(rows))
	}
	kinds := map[faults.Kind]bool{}
	classes := map[faults.Class]int{}
	real := 0
	for _, s := range rows {
		if kinds[s.Kind] {
			t.Fatalf("%s listed twice", s.Kind)
		}
		kinds[s.Kind] = true
		if s.Description == "" || s.Arm == nil {
			t.Fatalf("%s lacks a description or an arm hook", s.Kind)
		}
		classes[s.Class]++
		if s.Real {
			real++
		}
	}
	if classes[faults.ClassT1] != 5 || classes[faults.ClassT2] != 4 || classes[faults.ClassT3] != 2 {
		t.Fatalf("class counts = %v", classes)
	}
	if real != 8 {
		t.Fatalf("real faults = %d, want 8", real)
	}
}
