// Cloudtenant: the realistic multi-tenant scenario the paper's threat
// model describes (Section 3). A victim tenant's VM holds a database
// credential in its memory; the attacker, another ordinary tenant on
// the same host, runs the full HyperHammer campaign — respawning its
// VM after failed attempts — until it escapes KVM isolation and
// extracts the credential straight out of the victim VM's memory
// through host physical addresses.
//
// Runs at a reduced 4 GiB scale so the campaign lands in seconds.
package main

import (
	"fmt"
	"log"

	"hyperhammer"
)

func main() {
	geo, err := hyperhammer.NewGeometry(hyperhammer.Geometry{
		Name:      "cloud-host-4G (i3-10100 bank function)",
		Size:      4 * hyperhammer.GiB,
		BankMasks: hyperhammer.S1BankFunction(),
		RowShift:  18,
		RowBits:   14,
	})
	if err != nil {
		log.Fatal(err)
	}
	hostCfg := hyperhammer.S1(9)
	hostCfg.Geometry = geo
	hostCfg.Fault = hyperhammer.FaultModel{
		Seed: 9, CellsPerRow: 0.02,
		ThresholdMin: 120_000, ThresholdMax: 400_000,
		StableFraction: 0.54, FlakyP: 0.35,
		NeighborWeight1: 1.0, NeighborWeight2: 0.25,
	}
	hostCfg.BootNoisePages = 2000
	host, err := hyperhammer.NewHost(hostCfg)
	if err != nil {
		log.Fatal(err)
	}

	// The victim tenant: a small VM that writes a credential into its
	// own memory. It never interacts with the attacker.
	victimVM, err := host.CreateVM(hyperhammer.VMConfig{MemSize: 256 * hyperhammer.MiB})
	if err != nil {
		log.Fatal(err)
	}
	victim := hyperhammer.BootGuest(victimVM)
	credGVA, err := victim.AllocHuge(1)
	if err != nil {
		log.Fatal(err)
	}
	const credential = 0xDB_5EC2E7_0001
	if err := victim.Write64(credGVA, credential); err != nil {
		log.Fatal(err)
	}
	// Where the credential physically lives — known to the harness
	// for verification, never to the attacker.
	credHPA, err := victim.Hypercall(credGVA)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("victim VM stored its credential (physically at HPA %#x, unknown to the attacker)\n", credHPA)

	// The attacker tenant: most of the remaining host memory, one
	// VFIO device with vIOMMU.
	attackCfg := hyperhammer.DefaultAttackConfig(hyperhammer.S1BankFunction())
	attackCfg.HostMemBits = 32
	attackCfg.IOVAMappings = 6000
	attackCfg.TargetBits = 3

	res, err := hyperhammer.RunCampaign(host, hyperhammer.CampaignConfig{
		Attack:      attackCfg,
		VM:          hyperhammer.VMConfig{MemSize: 3328 * hyperhammer.MiB, VFIOGroups: 1, BootSplits: 150},
		MaxAttempts: 300,
		VerifyHPA:   credHPA,
		VerifyValue: credential,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("attacker profiled %d exploitable bits in %v simulated\n",
		res.ProfiledBits, res.ProfileDuration)
	if res.Successes == 0 {
		fmt.Printf("no escape within %d attempts; rerun with another seed\n", len(res.Attempts))
		return
	}
	fmt.Printf("attempt %d escaped after %v simulated attack time\n",
		res.FirstSuccessAttempt, res.TimeToFirstSuccess)
	fmt.Printf("attacker read the victim's credential %#x out of another VM's memory: inter-tenant isolation broken\n",
		uint64(credential))
}
