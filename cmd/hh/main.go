// Command hh is the reproduction's one command line: the end-to-end
// escape (hh run), the paper's evaluation (hh tables), the per-step
// demos, and the tools that compare, explain, watch and gate runs.
//
// Usage:
//
//	hh <subcommand> [flags] [args]
//	hh                              # list the subcommands
//	hh <subcommand> -h              # one subcommand's flags
//
// Every subcommand parses its own flags and returns its exit status to
// the single os.Exit in main; each file documents its subcommand's
// statuses.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

type command struct {
	name, summary string
	run           func(args []string) int
}

var commands = []command{
	{"run", "the end-to-end escape: profile, steer, exploit, read the host secret", cmdRun},
	{"tables", "regenerate Tables 1-3, Figure 3 and the Section 5-6 analyses", cmdTables},
	{"diff", "compare two run artifacts and gate regressions", cmdDiff},
	{"bisect", "localize where two runs' determinism ledgers first diverge", cmdBisect},
	{"why", "explain each attempt's outcome from an artifact's flip provenance", cmdWhy},
	{"top", "DRAM heatmap, layout census and alerts, live or from an artifact", cmdTop},
	{"plan", "host-cost schedule (Gantt, utilization, critical path), live or from an artifact", cmdPlan},
	{"trend", "fold a run-history store into cross-run trends", cmdTrend},
	{"inspect", "analyze a JSONL trace offline, or list a run-history store", cmdInspect},
	{"profile", "the memory-profiling step (Section 4.1) on one system", cmdProfile},
	{"steer", "the Page Steering step (Section 4.2)", cmdSteer},
	{"dramdig", "recover the DRAM bank address function (Section 5.1)", cmdDramdig},
}

func main() { os.Exit(dispatch(os.Args[1:], os.Stderr)) }

// dispatch runs the subcommand args names. No arguments or an unknown
// name prints the subcommand list on stderr and exits 2.
func dispatch(args []string, stderr io.Writer) int {
	if len(args) > 0 {
		for _, c := range commands {
			if c.name == args[0] {
				return c.run(args[1:])
			}
		}
		fmt.Fprintf(stderr, "hh: unknown subcommand %q\n", args[0])
	}
	fmt.Fprint(stderr, "usage: hh <subcommand> [flags] [args]\n\nsubcommands:\n")
	for _, c := range commands {
		fmt.Fprintf(stderr, "  %-10s %s\n", c.name, c.summary)
	}
	return 2
}

// newFlags returns a subcommand's flag set; usage, when set, heads the
// flag list that -h and a bad flag print.
func newFlags(name, usage string) *flag.FlagSet {
	fs := flag.NewFlagSet("hh "+name, flag.ContinueOnError)
	if usage != "" {
		fs.Usage = func() {
			fmt.Fprintln(fs.Output(), usage)
			fs.PrintDefaults()
		}
	}
	return fs
}

// parse parses args into fs. On failure it returns false and the exit
// status flag.ExitOnError would have used: 0 for -h, 2 for a bad flag.
func parse(fs *flag.FlagSet, args []string) (int, bool) {
	switch err := fs.Parse(args); {
	case err == nil:
		return 0, true
	case errors.Is(err, flag.ErrHelp):
		return 0, false
	default:
		return 2, false
	}
}

// parseFlags is parse for a subcommand that takes no positional
// argument: a stray one is a usage error, status 2, rather than
// something silently ignored.
func parseFlags(fs *flag.FlagSet, args []string) (int, bool) {
	if status, ok := parse(fs, args); !ok {
		return status, false
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(fs.Output(), "%s: unexpected argument %q\n", fs.Name(), fs.Arg(0))
		fs.Usage()
		return 2, false
	}
	return 0, true
}

// fail reports err on stderr under the subcommand's name and returns
// the exit status.
func fail(name string, status int, err error) int {
	fmt.Fprintf(os.Stderr, "hh %s: %v\n", name, err)
	return status
}
