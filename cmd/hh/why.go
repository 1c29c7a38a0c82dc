package main

// hh why answers "why did attempt N fail (or escape)?" from a run
// artifact's flip-provenance section. Without flags it prints the
// campaign-level view: every attempt's outcome with its synthesized
// one-line cause, the per-campaign failure taxonomy, and the global
// flip-verdict and frame-owner tables. With -attempt it drills into one
// attempt's full causal lineage: the attack-ladder facts, then every
// retained flip with the aggressor rows that drove it, the mitigation
// (if any) that intercepted it, and — for landed flips — the physical
// frame owner it corrupted, down to the EPT table page whose corrupted
// EPTE redirects a VM's translation.
//
//	hh run -short -artifact run.json
//	hh why run.json                          # every attempt: outcome + cause
//	hh why -attempt 33 run.json              # full lineage of attempt 33
//	hh why -unit "S1 campaign" -attempt 2 run.json
//	hh why -json run.json                    # raw forensics snapshot
//	hh why store/RUN-ID                      # a run in a run-history store
//
// Exit status: 0 on success, 1 on a missing/invalid artifact or an
// unknown attempt, 2 on usage errors.

import (
	"encoding/json"
	"fmt"
	"os"

	"hyperhammer/internal/forensics"
)

func cmdWhy(args []string) int {
	fs := newFlags("why", "usage: hh why [-attempt N [-unit NAME]] [-json] run   (an artifact file or STORE/RUN-ID)")
	attempt := fs.Int("attempt", 0, "drill into this attempt's full flip lineage (1-based)")
	unit := fs.String("unit", "", "scope -attempt to this plan unit's campaign (empty: first match)")
	asJSON := fs.Bool("json", false, "emit the raw forensics snapshot as JSON")
	if status, ok := parse(fs, args); !ok {
		return status
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	path := fs.Arg(0)
	a, err := load(path)
	if err != nil {
		return fail("why", 1, err)
	}
	s := a.Forensics
	if s == nil {
		return fail("why", 1, fmt.Errorf("%s carries no forensics section (produce it with a current build and -artifact)", path))
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s); err != nil {
			return fail("why", 1, err)
		}
		return 0
	}
	if *attempt > 0 {
		c, att, ok := s.FindAttempt(*unit, *attempt)
		if !ok {
			if *unit != "" {
				return fail("why", 1, fmt.Errorf("no attempt %d in unit %q", *attempt, *unit))
			}
			return fail("why", 1, fmt.Errorf("no attempt %d in any recorded campaign", *attempt))
		}
		if c.Unit != "" {
			fmt.Printf("unit %s, ", c.Unit)
		}
		forensics.WriteAttempt(os.Stdout, c, att)
		return 0
	}
	fmt.Printf("%s: tool=%s seed=%d scale=%s simSeconds=%.1f\n\n", path, a.Tool, a.Seed, a.Scale, a.SimSeconds)
	s.WriteSummary(os.Stdout)
	return 0
}
