// Command jury runs every JURY role from one binary: the validator host
// and the controller side of the paper's deployment (Fig. 2), the
// simulator, the figure and scale campaigns, trace stitching and the
// repository's own linter, one subcommand each. `jury` alone lists them;
// `jury <command> -h` lists a command's flags.
//
// Exit status is 0 on success (and for -h), 2 for a command-line error
// and 1 for any other failure; `jury lint` exits 1 when it reports
// diagnostics and 2 when the module cannot be loaded.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
)

// commands is the dispatch table, in the order the usage lists them.
var commands = []struct {
	name, summary string
	run           func(ctx context.Context, args []string, stdout io.Writer) error
}{
	{"serve", "run the validator as a TCP service (the validator host of Fig. 2)", runServe},
	{"live", "drive a live controller and switches over TCP OpenFlow", runLive},
	{"sim", "simulate a clustered deployment and print its report", runSim},
	{"fig", "regenerate the paper's evaluation figures as TSV", runFig},
	{"load", "sweep the streaming scale campaign over rates and shard widths", runLoad},
	{"trace", "stitch JSONL span traces of several processes into one timeline", runTrace},
	{"lint", "run the determinism & concurrency lint suite over the module", runLint},
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := dispatch(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// dispatch runs the subcommand args name and returns the process exit
// status, reporting any failure on stderr.
func dispatch(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		for _, c := range commands {
			if c.name != args[0] {
				continue
			}
			err := c.run(ctx, args[1:], stdout)
			code := exitCode(err)
			if code != 0 {
				fmt.Fprintf(stderr, "jury %s: %v\n", c.name, err)
			}
			return code
		}
		fmt.Fprintf(stderr, "jury: unknown command %q\n", args[0])
	}
	fmt.Fprintln(stderr, "usage: jury <command> [flags] [args]\n\ncommands:")
	for _, c := range commands {
		fmt.Fprintf(stderr, "  %-6s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(stderr, "\nRun 'jury <command> -h' for a command's flags.")
	return 2
}

// usageError marks a command-line mistake (a bad flag, flag value or
// argument): the subcommand exits 2.
type usageError struct{ error }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// parseFlags parses args into fs, marking a parse failure as a usage
// error. -h returns flag.ErrHelp, which exits 0.
func parseFlags(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return usageError{err}
	}
	return err
}

// exitCode maps a subcommand's result onto the process exit status.
func exitCode(err error) int {
	var ue usageError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &ue):
		return 2
	default:
		return 1
	}
}
