package main

import "testing"

// TestRun runs the example to completion, so it cannot rot: it fails when
// the example stops building or stops showing what it demonstrates.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
