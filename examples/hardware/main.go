// Hardware: the iTLB-Multihit trade-off around HyperHammer (Section
// 4.2.3), driven through the library API. On an affected CPU without
// the NX-hugepage countermeasure, a malicious guest can machine-check
// the host at will; the countermeasure stops the DoS — and in doing so
// creates the EPT-page allocations HyperHammer steers onto vulnerable
// frames. The deployed Rowhammer defenses of Section 6, in-DRAM TRR
// and ECC, are tables of `hh tables -extras`.
package main

import (
	"fmt"
	"log"

	"hyperhammer"
)

func main() {
	fmt.Println("== the iTLB Multihit trade-off ==")
	demoMultihit(false)
	demoMultihit(true)
}

// demoMultihit runs the guest DoS against an affected CPU with the
// countermeasure on or off, using the public API directly.
func demoMultihit(mitigated bool) {
	geo, err := hyperhammer.NewGeometry(hyperhammer.Geometry{
		Name: "affected-cpu-1G", Size: 1 * hyperhammer.GiB,
		BankMasks: hyperhammer.S1BankFunction(),
	})
	if err != nil {
		log.Fatal(err)
	}
	cfg := hyperhammer.S1(7)
	cfg.Geometry = geo
	cfg.NXHugepages = mitigated
	cfg.MultihitBugPresent = true
	cfg.BootNoisePages = 500
	host, err := hyperhammer.NewHost(cfg)
	if err != nil {
		log.Fatal(err)
	}
	vm, err := host.CreateVM(hyperhammer.VMConfig{MemSize: 256 * hyperhammer.MiB, VFIOGroups: 1})
	if err != nil {
		log.Fatal(err)
	}
	gos := hyperhammer.BootGuest(vm)
	base, err := gos.AllocHuge(4)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := gos.Exec(base); err != nil {
		log.Fatal(err)
	}
	crashed, err := gos.TriggerMultihitDoS(base)
	if err != nil {
		log.Fatal(err)
	}
	state := "host survives"
	if crashed {
		state = "HOST MACHINE-CHECKED (denial of service)"
	}
	fmt.Printf("NX-hugepage countermeasure %-3v -> guest DoS attempt: %s; hugepage splits so far: %d\n",
		mitigated, state, vm.Splits())
}
