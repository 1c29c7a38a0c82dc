package main

// The per-step demos: one attack step at a time on a full-scale
// simulated machine, printing what it found.
//
//	hh profile                      # Section 4.1 (the Table 1 workload) on S1
//	hh profile -system S2 -stop 12  # stop at 12 attack-usable bits (Section 5.3.3)
//	hh steer                        # Section 4.2 (Table 2 / Figure 3): B=20 blocks, 10 GiB spray
//	hh steer -blocks 100 -spray 5
//	hh dramdig                      # Section 5.1: recover both machines' bank functions
//	hh dramdig -system S2
//
// Exit status: 0 on success, 1 on a simulation error, 2 on an unknown
// -system, a -blocks below 1, or a -blocks above the attacker VM's free
// hugepages minus one (checked after boot, before any mapping).

import (
	"fmt"
	"os"

	"hyperhammer"
)

// system returns the named evaluation machine and its bank function.
func system(name string, seed uint64) (hyperhammer.HostConfig, []uint64, bool) {
	switch name {
	case "S1":
		return hyperhammer.S1(seed), hyperhammer.S1BankFunction(), true
	case "S2":
		return hyperhammer.S2(seed), hyperhammer.S2BankFunction(), true
	}
	return hyperhammer.HostConfig{}, nil, false
}

// bootAttacker boots host cfg and the 13 GiB attacker VM every demo
// runs in.
func bootAttacker(cfg hyperhammer.HostConfig) (*hyperhammer.Host, *hyperhammer.VM, *hyperhammer.GuestOS, error) {
	host, err := hyperhammer.NewHost(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	vm, err := host.CreateVM(hyperhammer.VMConfig{
		MemSize: 13 * hyperhammer.GiB, VFIOGroups: 1, BootSplits: 500,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return host, vm, hyperhammer.BootGuest(vm), nil
}

func cmdProfile(args []string) int {
	fs := newFlags("profile", "")
	sys := fs.String("system", "S1", "S1 or S2")
	seed := fs.Uint64("seed", 1, "simulation seed")
	stop := fs.Int("stop", 0, "stop after this many attack-usable bits (0 = full profile)")
	verbose := fs.Bool("v", false, "print each vulnerable bit")
	if status, ok := parse(fs, args); !ok {
		return status
	}
	hostCfg, masks, ok := system(*sys, *seed)
	if !ok {
		fmt.Fprintln(os.Stderr, "hh profile: -system must be S1 or S2")
		return 2
	}
	_, _, gos, err := bootAttacker(hostCfg)
	if err != nil {
		return fail("profile", 1, err)
	}
	cfg := hyperhammer.DefaultAttackConfig(masks)
	cfg.ProfileHugepages = 12 * hyperhammer.GiB / hyperhammer.HugePageSize
	cfg.StopAfterExploitable = *stop
	prof, err := hyperhammer.Profile(gos, cfg)
	if err != nil {
		return fail("profile", 1, err)
	}
	fmt.Printf("system %s: profiled %d hugepages in %v simulated (%d hammer ops)\n",
		*sys, prof.Buffer.Hugepages, prof.Duration, prof.HammerOps)
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

// cmdSteer demonstrates Page Steering: exhaust the host's noise pages
// through vIOMMU, voluntarily release blocks through the modified
// virtio-mem driver, spray EPT pages, and report how many released
// pages the hypervisor reused for EPTs.
func cmdSteer(args []string) int {
	fs := newFlags("steer", "")
	seed := fs.Uint64("seed", 1, "simulation seed")
	blocks := fs.Int("blocks", 20, "page blocks to release (the paper's B)")
	sprayGiB := fs.Int("spray", 10, "EPT-creation buffer in GiB (the paper's S)")
	if status, ok := parse(fs, args); !ok {
		return status
	}
	if *blocks < 1 {
		fmt.Fprintln(os.Stderr, "hh steer: -blocks must be at least 1")
		return 2
	}
	host, vm, gos, err := bootAttacker(hyperhammer.S1(*seed))
	if err != nil {
		return fail("steer", 1, err)
	}
	gos.InstallAttackDriver()
	n := gos.FreeHugepages()
	if *blocks > n-1 {
		// The release stride (n-1)/blocks would be 0.
		fmt.Fprintf(os.Stderr, "hh steer: -blocks must be at most %d, the VM's free hugepages minus one\n", n-1)
		return 2
	}
	base, err := gos.AllocHuge(n)
	if err != nil {
		return fail("steer", 1, err)
	}
	fmt.Printf("noise pages before exhaustion: %d\n", host.NoisePages())

	// Step 1: exhaustion.
	iova := hyperhammer.IOVA(0x1_0000_0000)
	for m := 0; m < 60000; m++ {
		if err := gos.MapDMA(0, iova, base); err != nil {
			return fail("steer", 1, err)
		}
		iova += hyperhammer.HugePageSize
	}
	fmt.Printf("noise pages after 60,000 vIOMMU mappings: %d\n", host.NoisePages())

	// Step 2: voluntary releases.
	stride := (n - 1) / *blocks
	released := 0
	for i := 1; i < n && released < *blocks; i += stride {
		if err := gos.ReleaseHugepage(base + hyperhammer.GVA(i)*hyperhammer.HugePageSize); err != nil {
			return fail("steer", 1, err)
		}
		released++
	}
	fmt.Printf("released %d blocks (%d pages) via voluntary virtio-mem unplug\n",
		released, released*512)

	// Step 3: EPTE spray.
	want := *sprayGiB * hyperhammer.GiB / hyperhammer.HugePageSize
	sprayed := 0
	for i := 0; i < n && sprayed < want; i++ {
		gva := base + hyperhammer.GVA(i)*hyperhammer.HugePageSize
		if _, err := gos.GPAOf(gva); err != nil {
			continue // released
		}
		if _, err := gos.Exec(gva); err != nil {
			return fail("steer", 1, err)
		}
		sprayed++
	}
	fmt.Printf("sprayed %d hugepage executions (multihit splits: %d)\n", sprayed, vm.Splits())

	stats := vm.EPTReuse()
	fmt.Printf("\nEPT reuse: N=%d E=%d R=%d R_N=%.1f%% R_E=%.1f%%\n",
		stats.ReleasedPages, stats.EPTPages, stats.ReusedPages,
		100*stats.RN(), 100*stats.RE())
	return 0
}

// cmdDramdig reverse engineers the simulated machines' DRAM bank
// address function from row-buffer-conflict timing and checks the
// THP-compatibility property the attack depends on.
func cmdDramdig(args []string) int {
	fs := newFlags("dramdig", "")
	sys := fs.String("system", "", "S1, S2, or empty for both")
	seed := fs.Uint64("seed", 1, "simulation seed")
	if status, ok := parse(fs, args); !ok {
		return status
	}
	names := []string{"S1", "S2"}
	if *sys != "" {
		names = []string{*sys}
	}
	for _, name := range names {
		cfg, _, ok := system(name, *seed)
		if !ok {
			fmt.Fprintln(os.Stderr, "hh dramdig: -system must be S1 or S2")
			return 2
		}
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
