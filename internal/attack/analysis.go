package attack

import (
	"time"
)

// This file reproduces the paper's closed-form analysis: the success
// probability bound of Section 5.3.1 and the end-to-end time estimate
// of Section 5.3.3.

// SuccessBound returns the paper's Section 5.3.1 upper bound on the
// per-attempt success probability:
//
//	P <= VM memory size / (512 * host memory size)
//
// Intuition: each exploited vulnerable bit consumes 1 GiB of guest
// address space to create 512 EPT pages, so the number of EPT pages —
// the only useful flip targets — is capped by guestMem/2MiB, while a
// flipped PFN lands anywhere in hostMem/4KiB frames.
func SuccessBound(guestMem, hostMem uint64) float64 {
	if hostMem == 0 {
		return 0
	}
	return float64(guestMem) / (512 * float64(hostMem))
}

// ExpectedAttempts returns the expected number of attack attempts for
// one success at the bound (its reciprocal).
func ExpectedAttempts(guestMem, hostMem uint64) float64 {
	p := SuccessBound(guestMem, hostMem)
	if p == 0 {
		return 0
	}
	return 1 / p
}

// EndToEndEstimate reproduces the Section 5.3.3 arithmetic: for an
// end-to-end attack the profile must be redone per attempt, stopping
// once targetBits exploitable bits are found, so each attempt's
// profiling cost is fullProfile * targetBits / exploitableBits, and
// the expected total is that times the expected attempt count.
func EndToEndEstimate(fullProfile time.Duration, exploitableBits, targetBits int, expectedAttempts float64) time.Duration {
	if exploitableBits == 0 {
		return 0
	}
	perAttempt := float64(fullProfile) * float64(targetBits) / float64(exploitableBits)
	return time.Duration(perAttempt * expectedAttempts)
}

// MonteCarloConfig parameterizes the empirical check of the bound.
type MonteCarloConfig struct {
	Seed uint64
	// Samples is the number of simulated flip outcomes.
	Samples int
	// EPTPages is the number of EPT pages in the system when the
	// flip fires (the only winning targets).
	EPTPages int
	// HostFrames is the number of 4 KiB frames of host memory.
	HostFrames int
}

// MonteCarloSuccess estimates, by sampling, the probability that a
// single exploitable-bit flip redirects an EPTE onto an EPT page:
// EPT pages are scattered uniformly over host frames and a flip moves
// the mapping by a power-of-two frame distance. The estimate should
// sit at or below the Section 5.3.1 bound.
//
// Each sample's random draws are derived from (Seed, sample index)
// alone — not from a stream shared across samples — so the estimate is
// identical no matter how the sample range is split into shards; see
// MonteCarloHits.
func MonteCarloSuccess(cfg MonteCarloConfig) float64 {
	if cfg.Samples <= 0 {
		return 0
	}
	return float64(MonteCarloHits(cfg, 0, 1)) / float64(cfg.Samples)
}

// MonteCarloHits counts the successful samples in the shard-th of
// shards contiguous, near-equal index ranges of the experiment
// MonteCarloSuccess describes. Summing the counts of all shards (in
// any split) reproduces the single-shard count exactly, which is what
// lets the experiment engine fan the sampling across workers without
// changing the reported probability. shards <= 0 or an out-of-range
// shard yields 0.
//
// The flip's PFN bit position does not enter the estimate: a flip at
// bit k moves the mapping by 2^(k-12) frames, and EPT pages are spread
// with no correlation to that distance, so every position lands on an
// EPT page at the same density.
func MonteCarloHits(cfg MonteCarloConfig, shard, shards int) int {
	if cfg.Samples <= 0 || cfg.HostFrames <= 0 || cfg.EPTPages <= 0 ||
		shards <= 0 || shard < 0 || shard >= shards {
		return 0
	}
	lo := shard * cfg.Samples / shards
	hi := (shard + 1) * cfg.Samples / shards
	density := float64(cfg.EPTPages) / float64(cfg.HostFrames)
	hits := 0
	for i := lo; i < hi; i++ {
		// Derive this sample's draw from the index: a splitmix64-style
		// finalizer over seed + (i+1)*golden gives each sample a uniform
		// word regardless of which shard runs it. Whether the landing
		// frame holds an EPT page is a Bernoulli draw at the EPT-page
		// density.
		x := cfg.Seed + (uint64(i)+1)*0x9E3779B97F4A7C15
		u := float64(mix64(x^0xD1B54A32D192ED03)>>11) / (1 << 53)
		if u < density {
			hits++
		}
	}
	return hits
}

// mix64 is the splitmix64 output finalizer: a bijective avalanche over
// one 64-bit word, good enough that consecutive inputs give
// statistically independent outputs.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
