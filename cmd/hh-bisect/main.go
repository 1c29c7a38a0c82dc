// Command hh-bisect localizes where two runs' determinism ledgers
// first diverge.
//
// hh-diff answers *whether* two runs drifted; hh-bisect answers
// *where*: which plan unit, which subsystem stream, and which sim-time
// epoch first disagreed. Both runs must have been produced with
// -ledger-epoch set so their artifacts carry a ledger section (rolling
// per-stream fingerprints sealed at a fixed simulated interval).
// Because the fingerprints are rolling, the first divergent epoch
// brackets the first divergent event: everything before it matched
// byte for byte.
//
// Exit status: 0 when the ledgers are identical, 1 when they diverge,
// 2 on usage or read errors (including artifacts without a ledger
// section).
//
// Usage:
//
//	hh-bisect a.json b.json
//	hh-bisect -store runs/ RUN-ID-A RUN-ID-B
//	hh-bisect -json a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"hyperhammer/internal/ledger"
	"hyperhammer/internal/runartifact"
	"hyperhammer/internal/runstore"
)

func main() {
	var (
		storeDir = flag.String("store", "", "resolve the two arguments as run IDs in this run-history store directory instead of file paths")
		asJSON   = flag.Bool("json", false, "emit the divergence record (or null) as JSON instead of text")
		context  = flag.Int("context", 2, "fingerprint epochs of context to print around the divergence")
	)
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: hh-bisect [flags] a.json b.json")
		fmt.Fprintln(os.Stderr, "       hh-bisect -store DIR run-id-a run-id-b")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	a := load(*storeDir, flag.Arg(0))
	b := load(*storeDir, flag.Arg(1))
	if a.Ledger == nil || b.Ledger == nil {
		for i, art := range []*runartifact.Artifact{a, b} {
			if art.Ledger == nil {
				fmt.Fprintf(os.Stderr, "hh-bisect: %s has no ledger section (rerun with -ledger-epoch)\n", flag.Arg(i))
			}
		}
		os.Exit(2)
	}

	d := ledger.Bisect(a.Ledger, b.Ledger)
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(d); err != nil {
			fmt.Fprintf(os.Stderr, "hh-bisect: %v\n", err)
			os.Exit(2)
		}
		if d != nil {
			os.Exit(1)
		}
		return
	}
	if d == nil {
		fmt.Printf("ledgers identical: %d unit(s), every stream fingerprint matches\n", len(a.Ledger.Units))
		return
	}

	// Headline: the first divergent stream, located in sim time.
	where := d.Stream
	if d.Unit != "" {
		where = d.Stream + " during " + d.Unit
	}
	switch {
	case d.Stream == "":
		fmt.Printf("ledgers diverge structurally: %s\n", d.Detail)
	case d.Epoch >= 0:
		fmt.Printf("%s diverged first at sim-time %s, epoch %d\n", where, simTime(d.SimSeconds), d.Epoch)
		fmt.Printf("  %s\n", d.Detail)
	default:
		fmt.Printf("%s diverged (final stream state; no sealed epoch localizes it)\n", where)
		fmt.Printf("  %s\n", d.Detail)
	}
	printContext(a.Ledger, b.Ledger, d, *context)
	os.Exit(1)
}

// load reads one artifact from a file path or, when storeDir is set,
// from the run-history store by run ID.
func load(storeDir, arg string) *runartifact.Artifact {
	if storeDir != "" {
		st, err := runstore.Open(storeDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hh-bisect: %v\n", err)
			os.Exit(2)
		}
		if err := st.Repaired(); err != nil {
			fmt.Fprintln(os.Stderr, "hh-bisect: warning:", err)
		}
		a, err := st.Load(arg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hh-bisect: %v\n", err)
			os.Exit(2)
		}
		return a
	}
	a, err := runartifact.ReadFile(arg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hh-bisect: %v\n", err)
		os.Exit(2)
	}
	return a
}

// printContext shows the divergent stream's fingerprint trail in both
// runs around the first divergent epoch, so the drift's onset — and
// everything that still matched before it — is visible at a glance.
func printContext(a, b *ledger.Snapshot, d *ledger.Divergence, context int) {
	if d.Stream == "" || d.Epoch < 0 {
		return
	}
	ua, ub := findUnit(a, d.Unit), findUnit(b, d.Unit)
	if ua == nil || ub == nil {
		return
	}
	lo := d.Epoch - context
	if lo < 0 {
		lo = 0
	}
	hi := d.Epoch + context
	fmt.Printf("  %-7s %-12s %-25s %-25s\n", "epoch", "sim-time", "run A "+d.Stream, "run B "+d.Stream)
	for e := lo; e <= hi && (e < len(ua.Epochs) || e < len(ub.Epochs)); e++ {
		fa, ca := epochFP(ua, e, d.Stream)
		fb, cb := epochFP(ub, e, d.Stream)
		mark := "  "
		if e == d.Epoch {
			mark = "* "
		} else if fa != fb {
			mark = "! "
		}
		sim := ""
		if e < len(ua.Epochs) {
			sim = simTime(ua.Epochs[e].SimSeconds)
		} else if e < len(ub.Epochs) {
			sim = simTime(ub.Epochs[e].SimSeconds)
		}
		fmt.Printf("%s%-7d %-12s %-25s %-25s\n", mark, e, sim, cell(fa, ca), cell(fb, cb))
	}
}

// findUnit locates the named unit trail (declaration order preserves
// duplicates' positions, but names are unique in practice).
func findUnit(s *ledger.Snapshot, unit string) *ledger.UnitLedger {
	for i := range s.Units {
		if s.Units[i].Unit == unit {
			return &s.Units[i]
		}
	}
	return nil
}

// epochFP returns one stream's fingerprint and count at an epoch, or
// empty when the epoch or stream is absent.
func epochFP(u *ledger.UnitLedger, e int, stream string) (string, uint64) {
	if e < 0 || e >= len(u.Epochs) {
		return "", 0
	}
	for _, sf := range u.Epochs[e].Streams {
		if sf.Stream == stream {
			return sf.FP, sf.Count
		}
	}
	return "", 0
}

func cell(fp string, count uint64) string {
	if fp == "" {
		return "-"
	}
	return fmt.Sprintf("%s (n=%d)", fp, count)
}

// simTime renders simulated seconds with millisecond precision, the
// resolution epoch boundaries are typically configured at.
func simTime(s float64) string {
	return fmt.Sprintf("%.3fs", s)
}
