package main

import (
	"context"
	"fmt"
	"strings"
	"testing"

	jury "github.com/jurysdn/jury"
	"github.com/jurysdn/jury/internal/faults"
)

func TestSim(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		// want lists substrings the report must contain; err, when set,
		// is a substring of the error run must return instead.
		want []string
		err  string
	}{
		{
			name: "onos n=3",
			args: []string{"-kind", "onos", "-n", "3", "-k", "2", "-rate", "200", "-duration", "1s"},
			want: []string{"cluster: onos n=3 jury=true k=2", "flows injected:", "-- validation --", "decided:", "alarms 0"},
		},
		{
			name: "odl with a catalog fault",
			args: []string{"-kind", "ODL", "-n", "3", "-k", "2", "-rate", "100", "-duration", "1s", "-fault", "odl-flowmod-drop"},
			want: []string{"cluster: odl n=3", "fault: odl-flowmod-drop on C1", "ALARM: missing-network  offender=C1"},
		},
		{
			name: "list faults",
			args: []string{"-list-faults"},
			want: []string{"fault catalog", "odl-flowmod-drop", "onos-database-locking"},
		},
		{
			name: "unknown kind",
			args: []string{"-kind", "onso", "-n", "3", "-k", "2", "-duration", "1s"},
			err:  `unknown -kind "onso"`,
		},
		{
			name: "unknown fault",
			args: []string{"-n", "3", "-k", "2", "-duration", "1s", "-fault", "no-such-fault"},
			err:  `unknown fault "no-such-fault"`,
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			err := runSim(context.Background(), c.args, &out)
			if c.err != "" {
				if err == nil || !strings.Contains(err.Error(), c.err) {
					t.Fatalf("runSim(%q) = %v, want an error containing %q; output:\n%s", c.args, err, c.err, out.String())
				}
				return
			}
			if err != nil {
				t.Fatalf("runSim(%q): %v", c.args, err)
			}
			for _, w := range c.want {
				if !strings.Contains(out.String(), w) {
					t.Errorf("output lacks %q:\n%s", w, out.String())
				}
			}
		})
	}
	// One run per catalog row. A row that lists verdict classes must
	// perturb something and be convicted: an alarm of a listed class
	// naming the fault's target.
	for _, sc := range jury.Catalog() {
		sc := sc
		t.Run("fault "+string(sc.Kind), func(t *testing.T) {
			var out strings.Builder
			args := []string{"-n", "3", "-k", "2", "-rate", "200", "-duration", "5s", "-fault", string(sc.Kind)}
			if err := runSim(context.Background(), args, &out); err != nil {
				t.Fatalf("runSim(%q): %v", args, err)
			}
			report := out.String()
			if !strings.Contains(report, "fault: "+string(sc.Kind)+" on C") {
				t.Fatalf("no fault line:\n%s", report)
			}
			if len(sc.Catches) == 0 {
				return
			}
			var injections int
			_, count, _ := strings.Cut(report, "fault injections: ")
			if _, err := fmt.Sscan(count, &injections); err != nil {
				t.Fatalf("no injection count: %v\n%s", err, report)
			}
			// The master-election fault counts no injections (see its row).
			if injections == 0 && sc.Kind != faults.ONOSMasterElection {
				t.Errorf("fault never manifested:\n%s", report)
			}
			if !strings.Contains(report, "convicted by ALARM: ") {
				t.Errorf("not convicted:\n%s", report)
			}
		})
	}
}
