package main

// The per-step demos: one attack step at a time on a full-scale paper
// machine, the one the tables boot (experiments.Options.Machine),
// printing what it found.
//
//	hh profile                      # Section 4.1 (the Table 1 workload) on S1
//	hh profile -system S2 -stop 12  # stop at 12 attack-usable bits (Section 5.3.3)
//	hh steer                        # Section 4.2: Table 2's S1 row at B=20 blocks, 10 GiB spray
//	hh steer -blocks 100 -spray 5
//	hh dramdig                      # Section 5.1: recover both machines' bank functions
//	hh dramdig -system S2
//
// Exit status: 0 on success, 1 on a simulation error, 2 on an unknown
// -system, a -spray below 1, or a -blocks outside 1 to the attacker
// VM's free hugepages minus one (checked after boot, before any
// mapping).

import (
	"errors"
	"fmt"
	"os"

	"hyperhammer"
	"hyperhammer/experiments"
)

// systems are the machines -system names.
var systems = map[string]experiments.System{"S1": experiments.SystemS1, "S2": experiments.SystemS2}

func cmdProfile(args []string) int {
	fs := newFlags("profile", "")
	name := fs.String("system", "S1", "S1 or S2")
	seed := fs.Uint64("seed", 1, "simulation seed")
	stop := fs.Int("stop", 0, "stop after this many attack-usable bits (0 = full profile)")
	verbose := fs.Bool("v", false, "print each vulnerable bit")
	if status, ok := parse(fs, args); !ok {
		return status
	}
	sys, ok := systems[*name]
	if !ok {
		fmt.Fprintln(os.Stderr, "hh profile: -system must be S1 or S2")
		return 2
	}
	hostCfg, vmCfg, cfg := experiments.Options{Seed: *seed}.Machine(sys)
	host, err := hyperhammer.NewHost(hostCfg)
	if err != nil {
		return fail("profile", 1, err)
	}
	vm, err := host.CreateVM(vmCfg)
	if err != nil {
		return fail("profile", 1, err)
	}
	cfg.ProfileHugepages = 12 * hyperhammer.GiB / hyperhammer.HugePageSize // Table 1's profile
	cfg.StopAfterExploitable = *stop
	prof, err := hyperhammer.Profile(hyperhammer.BootGuest(vm), cfg)
	if err != nil {
		return fail("profile", 1, err)
	}
	fmt.Printf("system %s: profiled %d hugepages in %v simulated (%d hammer ops)\n",
		sys, prof.Buffer.Hugepages, prof.Duration, prof.HammerOps)
	fmt.Printf("flips: total=%d 1->0=%d 0->1=%d stable=%d exploitable=%d attack-usable=%d\n",
		prof.Total, prof.OneToZero, prof.ZeroToOne, prof.Stable, prof.Exploitable, prof.AttackUsable)
	if *verbose {
		for i, b := range prof.Bits {
			fmt.Printf("  bit %3d: gva=%#x bit=%d epte-bit=%2d dir=%v stable=%v usable=%v\n",
				i, b.Flip.GVA, b.Flip.Bit, b.Flip.EPTEBit(), b.Flip.Direction, b.Stable, b.Exploitable)
		}
	}
	return 0
}

// cmdSteer demonstrates Page Steering with Table 2's own unit: exhaust
// the host's noise pages through vIOMMU, voluntarily release blocks
// through the modified virtio-mem driver, spray EPT pages, and print
// the Table 2 row of how many released pages the hypervisor reused for
// EPTs.
func cmdSteer(args []string) int {
	fs := newFlags("steer", "")
	seed := fs.Uint64("seed", 1, "simulation seed")
	blocks := fs.Int("blocks", 20, "page blocks to release (the paper's B)")
	sprayGiB := fs.Int("spray", 10, "EPT-creation buffer in GiB (the paper's S)")
	if status, ok := parse(fs, args); !ok {
		return status
	}
	if *sprayGiB < 1 {
		// Table2Run reads a spray of 0 as "every mapped hugepage".
		fmt.Fprintln(os.Stderr, "hh steer: -spray must be at least 1")
		return 2
	}
	row, err := experiments.Table2Run(experiments.Options{Seed: *seed}, experiments.SystemS1,
		uint64(*sprayGiB)*hyperhammer.GiB, *blocks)
	if errors.Is(err, experiments.ErrBlocksOutOfRange) {
		return fail("steer", 2, err)
	}
	if err != nil {
		return fail("steer", 1, err)
	}
	fmt.Print((&experiments.Table2Result{Rows: []experiments.Table2Row{row}}).Table())
	return 0
}

// cmdDramdig reverse engineers the simulated machines' DRAM bank
// address function from row-buffer-conflict timing and checks the
// THP-compatibility property the attack depends on.
func cmdDramdig(args []string) int {
	fs := newFlags("dramdig", "")
	sysName := fs.String("system", "", "S1, S2, or empty for both")
	seed := fs.Uint64("seed", 1, "simulation seed")
	if status, ok := parse(fs, args); !ok {
		return status
	}
	names := []string{"S1", "S2"}
	if *sysName != "" {
		names = []string{*sysName}
	}
	for _, name := range names {
		sys, ok := systems[name]
		if !ok {
			fmt.Fprintln(os.Stderr, "hh dramdig: -system must be S1 or S2")
			return 2
		}
		cfg, _, _ := experiments.Options{Seed: *seed}.Machine(sys)
		res, err := hyperhammer.RecoverBankFunction(cfg.Geometry, *seed)
		if err != nil {
			return fail("dramdig", 1, fmt.Errorf("%s: %w", name, err))
		}
		fmt.Printf("%s (%s):\n", name, cfg.Geometry.Name)
		fmt.Printf("  %d banks from %d XOR masks (%d timing probes)\n",
			res.Banks, len(res.Masks), res.ProbeCount)
		for _, m := range res.Masks {
			fmt.Printf("  mask %#07x (bits", m)
			for b := 0; b < 64; b++ {
				if m&(1<<b) != 0 {
					fmt.Printf(" %d", b)
				}
			}
			fmt.Println(")")
		}
		fmt.Printf("  all bits below 22 (THP-compatible): %v\n\n", res.AllBitsBelow(22))
	}
	return 0
}
