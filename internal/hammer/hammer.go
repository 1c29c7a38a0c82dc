// Package hammer provides the TRRespass-style pattern search the paper
// uses before profiling (Section 5.1): given a guest allocation, try
// candidate hammer patterns (aggressor counts, round counts, row
// placements) and report which ones produce reproducible bit flips on
// the installed DIMMs.
//
// On the evaluated machines the search concludes that single-sided
// patterns (two same-bank consecutive rows on one side of the victim)
// trigger reproducible flips — the pattern the main attack then uses.
package hammer

import (
	"fmt"

	"hyperhammer/internal/guest"
	"hyperhammer/internal/memdef"
)

// rowShift is the row-number shift of the evaluated machines.
const rowShift = 18

// Pattern describes one candidate hammer pattern.
type Pattern struct {
	// Name is a human-readable label.
	Name string
	// RowOffsets are the in-hugepage row-span indices of the
	// aggressors (two consecutive spans = the paper's single-sided
	// pattern).
	RowOffsets []int
	// Rounds is the activation count per run.
	Rounds int
}

// DefaultPatterns returns the candidate set the search evaluates,
// orthodox TRRespass style: varying aggressor placement and intensity.
func DefaultPatterns() []Pattern {
	return []Pattern{
		{Name: "single-sided-2 (rows 6,7)", RowOffsets: []int{6, 7}, Rounds: 250_000},
		{Name: "single-sided-2 (rows 0,1)", RowOffsets: []int{0, 1}, Rounds: 250_000},
		{Name: "single-row (row 7)", RowOffsets: []int{7}, Rounds: 250_000},
		{Name: "spaced (rows 5,7)", RowOffsets: []int{5, 7}, Rounds: 250_000},
		{Name: "low-intensity (rows 6,7)", RowOffsets: []int{6, 7}, Rounds: 40_000},
		{Name: "many-sided-8 (TRRespass)", RowOffsets: []int{0, 1, 2, 3, 4, 5, 6, 7}, Rounds: 250_000},
	}
}

// Config tunes the search.
type Config struct {
	// BankMasks is the (recovered) bank function for same-bank
	// placement.
	BankMasks []uint64
	// Hugepages is how many hugepages to sweep per pattern.
	Hugepages int
	// Repeats is how many times a flip must reproduce for a pattern
	// to count as reliable.
	Repeats int
}

// Result reports one pattern's effectiveness.
type Result struct {
	Pattern Pattern
	// Flips is the number of distinct bits the pattern flipped
	// during the sweep.
	Flips int
	// Reproducible is the number of those that flipped again on
	// every repeat.
	Reproducible int
}

// Search allocates a test buffer and evaluates each pattern. The
// buffer is freed before returning.
func Search(os *guest.OS, cfg Config, patterns []Pattern) ([]Result, error) {
	if cfg.Hugepages <= 0 || cfg.Repeats <= 0 || len(cfg.BankMasks) == 0 {
		return nil, fmt.Errorf("hammer: bad config %+v", cfg)
	}
	n := cfg.Hugepages
	if n > os.FreeHugepages() {
		n = os.FreeHugepages()
	}
	if n < 2 {
		return nil, fmt.Errorf("hammer: need at least 2 hugepages")
	}
	base, err := os.AllocHuge(n)
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.FreeHuge(base, n) }()

	const pattern = 0x5555555555555555
	fill := func() error {
		return os.FillPages(base, n*memdef.PagesPerHuge, pattern)
	}

	var out []Result
	var specs []guest.HammerSpec
	var gvas []memdef.GVA
	for _, pat := range patterns {
		if err := fill(); err != nil {
			return nil, err
		}
		os.ScanForFlips() // drain stale observations
		res := Result{Pattern: pat}
		// One run across the whole buffer, bank class 0 only: the
		// search gauges pattern effectiveness, not coverage. No scans
		// happen between the per-hugepage runs, so the sweep is one
		// batched submission.
		aggr := aggressorsFor(cfg, pat)
		if len(aggr) == 0 {
			return nil, fmt.Errorf("hammer: pattern has no aggressors")
		}
		specs, gvas = specs[:0], gvas[:0]
		for hp := 0; hp < n; hp++ {
			hugeBase := base + memdef.GVA(hp)*memdef.HugePageSize
			off := len(gvas)
			gvas = appendAggressors(gvas, hugeBase, aggr)
			specs = append(specs, guest.HammerSpec{Aggressors: gvas[off:len(gvas):len(gvas)], Rounds: pat.Rounds})
		}
		if err := os.HammerBatch(specs); err != nil {
			return nil, err
		}
		flips := os.ScanForFlips()
		res.Flips = len(flips)
		// Reproducibility: re-arm and re-run per flip.
		for _, f := range flips {
			page := f.GVA &^ (memdef.PageSize - 1)
			ok := true
			for r := 0; r < cfg.Repeats && ok; r++ {
				if err := os.FillPage(page, pattern); err != nil {
					ok = false
					break
				}
				hugeBase := memdef.HugeBase(f.GVA) // approximate re-aim
				if err := hammerOnce(os, hugeBase, aggr, pat.Rounds); err != nil {
					return nil, err
				}
				w, err := os.Read64(f.GVA &^ 7)
				if err != nil {
					ok = false
					break
				}
				pos := f.EPTEBit()
				if (w>>pos)&1 == (uint64(pattern)>>pos)&1 {
					ok = false
				}
			}
			if ok {
				res.Reproducible++
			}
		}
		out = append(out, res)
	}
	return out, nil
}

// aggressorsFor picks, for bank class 0, one offset per aggressor row
// of the pattern.
func aggressorsFor(cfg Config, pat Pattern) []uint64 {
	const span = uint64(1) << rowShift
	var offs []uint64
	for _, row := range pat.RowOffsets {
		base := uint64(row) * span
		for off := base; off < base+span; off += 64 {
			if bankClass(cfg.BankMasks, off) == 0 {
				offs = append(offs, off)
				break
			}
		}
	}
	return offs
}

func bankClass(masks []uint64, off uint64) int {
	cls := 0
	for i, m := range masks {
		v := off & m & (1<<memdef.HugePageShift - 1)
		// parity
		p := 0
		for v != 0 {
			p ^= 1
			v &= v - 1
		}
		cls |= p << i
	}
	return cls
}

// appendAggressors appends the pattern's guest addresses for one
// hugepage, mirroring hammerOnce's shapes: a single aggressor is
// doubled ([a, a]) so the batched op hashes to the same RNG stream as
// os.Hammer(a, a, ...).
func appendAggressors(dst []memdef.GVA, hugeBase memdef.GVA, aggrOffsets []uint64) []memdef.GVA {
	if len(aggrOffsets) == 1 {
		a := hugeBase + memdef.GVA(aggrOffsets[0])
		return append(dst, a, a)
	}
	for _, off := range aggrOffsets {
		dst = append(dst, hugeBase+memdef.GVA(off))
	}
	return dst
}

// hammerOnce drives the aggressor set for the reproducibility retests.
// Patterns with one aggressor hammer it against itself (classic
// single-row hammering is strictly weaker — the row buffer stays open
// — which the search should discover); wider sets run the many-sided
// loop.
func hammerOnce(os *guest.OS, hugeBase memdef.GVA, aggrOffsets []uint64, rounds int) error {
	switch len(aggrOffsets) {
	case 0:
		return fmt.Errorf("hammer: pattern has no aggressors")
	case 1:
		a := hugeBase + memdef.GVA(aggrOffsets[0])
		return os.Hammer(a, a, rounds)
	case 2:
		a := hugeBase + memdef.GVA(aggrOffsets[0])
		b := hugeBase + memdef.GVA(aggrOffsets[1])
		return os.Hammer(a, b, rounds)
	default:
		addrs := make([]memdef.GVA, 0, len(aggrOffsets))
		for _, off := range aggrOffsets {
			addrs = append(addrs, hugeBase+memdef.GVA(off))
		}
		return os.HammerMany(addrs, rounds)
	}
}

// Best returns the pattern with the most reproducible flips.
func Best(results []Result) (Result, bool) {
	var best Result
	found := false
	for _, r := range results {
		if !found || r.Reproducible > best.Reproducible ||
			(r.Reproducible == best.Reproducible && r.Flips > best.Flips) {
			best = r
			found = true
		}
	}
	return best, found
}
