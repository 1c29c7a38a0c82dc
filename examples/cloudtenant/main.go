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
	"hyperhammer/experiments"
)

func main() {
	// The short-scale S1 machine the CI tables run: a 4 GiB host with
	// the i3-10100 bank function.
	hostCfg, vmCfg, attackCfg := experiments.Options{Seed: 9, Short: true}.Machine(experiments.SystemS1)
	host, err := hyperhammer.NewHost(hostCfg)
	if err != nil {
		log.Fatal(err)
	}

	// The victim tenant: a small VM that writes a credential into its
	// own memory. It never interacts with the attacker.
	const victimMem = 256 * hyperhammer.MiB
	victimVM, err := host.CreateVM(hyperhammer.VMConfig{MemSize: victimMem})
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

	// The attacker tenant: the machine's attacker VM less the victim's
	// share of the host, with one VFIO device behind the vIOMMU.
	vmCfg.MemSize -= victimMem
	res, err := hyperhammer.RunCampaign(host, hyperhammer.CampaignConfig{
		Attack:      attackCfg,
		VM:          vmCfg,
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
