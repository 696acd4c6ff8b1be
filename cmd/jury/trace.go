package main

import (
	"context"
	"flag"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/jurysdn/jury/internal/obs"
)

// runTrace stitches the JSONL span traces of N JURY processes (the
// controller side of `jury live`, the validator side of `jury serve` or
// `jury sim`) into one merged timeline. By default it emits a Chrome
// trace_event file for chrome://tracing or Perfetto; -jsonl emits merged
// JSONL instead (an obs.Stitch input itself, so stitches compose).
//
// Each argument names one input as origin=path or origin=shiftNS=path,
// where shiftNS is the virtual-clock-base offset aligning that process
// onto the stitched axis. `jury serve` logs the estimated shift per
// origin at shutdown ("stitch shift for origin ..."); the validator's own
// trace uses shift 0.
//
//	jury trace -out trace.json juryd=validator.jsonl jurylive=1500000=controller.jsonl
//	jury trace -jsonl -out merged.jsonl juryd=validator.jsonl jurylive=controller.jsonl
func runTrace(_ context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	var (
		out   = fs.String("out", "", "output path (empty = stdout)")
		jsonl = fs.Bool("jsonl", false, "emit merged JSONL spans instead of a Chrome trace")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return usagef("no inputs; expected origin=path or origin=shiftNS=path arguments")
	}

	var inputs []obs.StitchInput
	for _, arg := range fs.Args() {
		in, path, err := parseStitchArg(arg)
		if err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in.R = f
		inputs = append(inputs, in)
	}

	stitch := obs.StitchChromeTrace
	if *jsonl {
		stitch = obs.StitchJSONL
	}
	write := func(w io.Writer) error { return stitch(w, inputs...) }
	if *out == "" {
		return write(stdout)
	}
	return writeFile(*out, write)
}

// parseStitchArg decodes origin=path or origin=shiftNS=path.
func parseStitchArg(arg string) (obs.StitchInput, string, error) {
	parts := strings.SplitN(arg, "=", 3)
	switch len(parts) {
	case 2:
		return obs.StitchInput{Origin: parts[0]}, parts[1], nil
	case 3:
		shift, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			return obs.StitchInput{}, "", usagef("%q: shift: %w", arg, err)
		}
		return obs.StitchInput{Origin: parts[0], ShiftNS: shift}, parts[2], nil
	default:
		return obs.StitchInput{}, "", usagef("%q: expected origin=path or origin=shiftNS=path", arg)
	}
}
