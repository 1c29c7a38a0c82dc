// Package dramdig reimplements the part of the DRAMDig methodology the
// paper uses (Section 5.1): reverse engineering the XOR-based DRAM
// bank address function from row-buffer-conflict timing, and verifying
// that every recovered function bit lies below bit 21 — the property
// that lets a THP-backed guest predict bank collisions from the low
// address bits alone.
//
// The recovery runs on physical addresses (the tool runs on bare metal
// with root, as DRAMDig does); the attack then carries only the
// recovered masks into the guest.
package dramdig

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"sort"
	"time"

	"hyperhammer/internal/dram"
	"hyperhammer/internal/memdef"
	"hyperhammer/internal/trace"
)

// Prober measures access-pair latency, the only primitive DRAMDig
// needs. dram.Timing implements it.
type Prober interface {
	ProbePair(a, b memdef.HPA) time.Duration
}

// Config tunes the recovery.
type Config struct {
	// Seed drives address sampling.
	Seed uint64
	// MemSize is the probed physical range.
	MemSize uint64
	// Trace, when non-nil, receives a "dramdig.recover" span covering
	// the run plus events for threshold calibration, reference-pair
	// discovery, and the recovered masks.
	Trace *trace.Recorder
}

// Recovery settings adequate for the modelled machines.
const (
	// probes is the number of timing measurements averaged per address
	// pair to beat jitter.
	probes = 8
	// referencePairs is how many same-bank reference addresses are
	// collected; every candidate mask is tested against all of them.
	referencePairs = 8
	// minBit and maxBit bound the address bits considered for the bank
	// function. The evaluated machines' functions use bits 6..21.
	minBit, maxBit = 6, 22
	// rowToggleBit is an address bit guaranteed to select a different
	// DRAM row without touching the bank function (bit 24 here: row
	// bits span 18-33 and no modelled bank mask reaches past 21).
	rowToggleBit = 24
)

// Result is the recovered bank addressing information.
type Result struct {
	// Masks form a canonical basis of the recovered bank function.
	// Any basis of the same GF(2) span defines identical bank
	// collision classes, which is all the attack needs.
	Masks []uint64
	// Banks is 2^len(Masks).
	Banks int
	// ProbeCount is how many timing probes were spent.
	ProbeCount int
}

// AllBitsBelow reports whether every recovered mask uses only address
// bits below the given position — the THP-compatibility check of
// Section 5.1.
func (r Result) AllBitsBelow(bit uint) bool {
	for _, m := range r.Masks {
		if m>>bit != 0 {
			return false
		}
	}
	return true
}

// SameBank reports whether two addresses collide under the recovered
// function.
func (r Result) SameBank(a, b memdef.HPA) bool {
	for _, m := range r.Masks {
		if bits.OnesCount64(uint64(a)&m)&1 != bits.OnesCount64(uint64(b)&m)&1 {
			return false
		}
	}
	return true
}

// Recover reverse engineers the bank function:
//
//  1. Calibrate a conflict/hit latency threshold from random pairs.
//  2. Collect reference addresses a for which (a, a XOR 2^rowToggleBit)
//     conflicts — same bank, different row.
//  3. For every XOR mask m over the candidate bits, decide whether m
//     preserves the bank: (a, a XOR m XOR 2^rowToggleBit) must still
//     conflict for every reference. The preserving masks form the
//     bank function's GF(2) null space.
//  4. Return a basis of the orthogonal complement — the bank function.
func Recover(p Prober, cfg Config) (Result, error) {
	if cfg.MemSize == 0 {
		return Result{}, fmt.Errorf("dramdig: bad config %+v", cfg)
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xBF58476D1CE4E5B9))
	res := Result{}
	span := cfg.Trace.StartSpan("dramdig.recover", "memSize", cfg.MemSize, "seed", cfg.Seed)

	measure := func(a, b memdef.HPA) time.Duration {
		var sum time.Duration
		for i := 0; i < probes; i++ {
			sum += p.ProbePair(a, b)
		}
		res.ProbeCount += probes
		return sum / probes
	}

	// Step 1: threshold calibration on random pairs. Same-bank
	// different-row pairs form a slow conflict mode well above the
	// hit mode; place the threshold in the widest gap of the sorted
	// sample means and require that gap to dominate the jitter —
	// otherwise the sample simply contained no conflicts and we need
	// more data, not a threshold in the middle of the noise.
	rowToggle := memdef.HPA(1) << rowToggleBit
	var samples []time.Duration
	for i := 0; i < 512; i++ {
		a := memdef.HPA(rng.Uint64N(cfg.MemSize/2)) &^ (dram.LineSize - 1)
		b := a ^ rowToggle ^ memdef.HPA(rng.Uint64N(uint64(1)<<maxBit))&^(dram.LineSize-1)
		samples = append(samples, measure(a, b))
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	gapAt, gap := 0, time.Duration(0)
	for i := 1; i < len(samples); i++ {
		if d := samples[i] - samples[i-1]; d > gap {
			gap, gapAt = d, i
		}
	}
	if gap < 40*time.Nanosecond {
		err := fmt.Errorf("dramdig: no bimodal timing separation (largest gap %v)", gap)
		span.End("err", err)
		return Result{}, err
	}
	threshold := samples[gapAt-1] + gap/2
	cfg.Trace.Emit("dramdig.threshold", "threshold", threshold, "gap", gap)
	conflicts := func(a, b memdef.HPA) bool { return measure(a, b) > threshold }

	// Step 2: same-bank references.
	var refs []memdef.HPA
	for i := 0; i < 64*referencePairs && len(refs) < referencePairs; i++ {
		a := memdef.HPA(rng.Uint64N(cfg.MemSize/2)) &^ (dram.LineSize - 1)
		if conflicts(a, a^rowToggle) {
			refs = append(refs, a)
		}
	}
	if len(refs) == 0 {
		err := fmt.Errorf("dramdig: found no same-bank reference pairs")
		span.End("err", err)
		return Result{}, err
	}
	cfg.Trace.Emit("dramdig.references", "count", len(refs))

	// Step 3: exhaustively classify every candidate mask.
	var nullVecs []uint64
	for iter := uint64(1); iter < 1<<(maxBit-minBit); iter++ {
		m := iter << minBit
		ok := true
		for _, a := range refs {
			b := a ^ memdef.HPA(m) ^ rowToggle
			if uint64(b) >= cfg.MemSize {
				b = a ^ memdef.HPA(m) // row toggle down instead
			}
			if !conflicts(a, b) {
				ok = false
				break
			}
		}
		if ok {
			nullVecs = append(nullVecs, m)
		}
	}

	// Step 4: orthogonal complement of the null space over the
	// candidate bits.
	masks := orthogonalComplement(nullVecs, minBit, maxBit)
	sort.Slice(masks, func(i, j int) bool { return masks[i] > masks[j] })
	res.Masks = masks
	res.Banks = 1 << len(masks)
	for _, m := range masks {
		cfg.Trace.Emit("dramdig.mask", "mask", fmt.Sprintf("%#x", m))
	}
	span.End("masks", len(masks), "banks", res.Banks, "probes", res.ProbeCount)
	return res, nil
}

// gauss row-reduces a set of GF(2) vectors to a basis.
func gauss(vs []uint64) []uint64 {
	var basis []uint64
	for _, v := range vs {
		for _, b := range basis {
			top := uint64(1) << (63 - bits.LeadingZeros64(b))
			if v&top != 0 {
				v ^= b
			}
		}
		if v != 0 {
			basis = append(basis, v)
			sort.Slice(basis, func(i, j int) bool { return basis[i] > basis[j] })
		}
	}
	return basis
}

// orthogonalComplement returns a basis of the vectors over bits
// [minBit, maxBit) orthogonal to every vector in nullSpace.
func orthogonalComplement(nullSpace []uint64, minBit, maxBit uint) []uint64 {
	nullBasis := gauss(nullSpace)
	n := int(maxBit - minBit)
	var ortho []uint64
	for iter := uint64(1); iter < uint64(1)<<n; iter++ {
		m := iter << minBit
		ok := true
		for _, nv := range nullBasis {
			if bits.OnesCount64(m&nv)&1 != 0 {
				ok = false
				break
			}
		}
		if ok {
			ortho = append(ortho, m)
		}
	}
	return gauss(ortho)
}
