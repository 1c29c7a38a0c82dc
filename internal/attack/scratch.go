package attack

import (
	"hyperhammer/internal/guest"
	"hyperhammer/internal/memdef"
)

// attemptScratch holds the buffers the steer and exploit hot paths
// need per attempt. A campaign runs hundreds of attempts against the
// same VM shape, so RunCampaign allocates one scratch and threads it
// through Config; every map and slice here is cleared, not
// re-allocated, between attempts. Standalone PageSteer/Exploit calls
// (cfg.scratch nil) allocate a private one per call.
//
// The maps are used for membership tests only — never iterated — so
// reuse cannot perturb any deterministic ordering.
type attemptScratch struct {
	// runAttempt: physical-to-virtual relocation table and the
	// relocated victim list.
	hpaToGVA map[memdef.HPA]memdef.GVA
	victims  []VulnBit

	// pageSteer: hugepages that must survive release, hugepages
	// released, and the spray order permutation.
	keep, released map[memdef.GVA]bool
	order          []int

	// exploit: released-hugepage set, hammered aggressor pairs,
	// baseline scan results, per-probe scan buffer, and the
	// baseline-page set used by EPT-page validation.
	exReleased map[memdef.GVA]bool
	hammered   map[[2]memdef.GVA]bool
	baseline   []guest.MappingChange
	probe      []guest.MappingChange
	known      map[memdef.GVA]bool

	// exploit's hammer submission: the spec list and the flat
	// aggressor-address backing its Aggressors slices point into. When
	// an append reallocates the backing, earlier specs keep the old
	// array — its values are already final, so aliasing is not needed.
	specs    []guest.HammerSpec
	specGVAs []memdef.GVA
}

func (s *attemptScratch) gvaSet(m *map[memdef.GVA]bool) map[memdef.GVA]bool {
	if *m == nil {
		*m = make(map[memdef.GVA]bool)
	} else {
		clear(*m)
	}
	return *m
}

func (s *attemptScratch) pairSet() map[[2]memdef.GVA]bool {
	if s.hammered == nil {
		s.hammered = make(map[[2]memdef.GVA]bool)
	} else {
		clear(s.hammered)
	}
	return s.hammered
}

func (s *attemptScratch) hpaMap(capacity int) map[memdef.HPA]memdef.GVA {
	if s.hpaToGVA == nil {
		s.hpaToGVA = make(map[memdef.HPA]memdef.GVA, capacity)
	} else {
		clear(s.hpaToGVA)
	}
	return s.hpaToGVA
}

func (s *attemptScratch) intSlice(n int) []int {
	if cap(s.order) < n {
		s.order = make([]int, n)
	}
	s.order = s.order[:n]
	return s.order
}

// scratchOf returns the config's campaign-owned scratch, or a fresh
// private one for standalone calls.
func scratchOf(cfg Config) *attemptScratch {
	if cfg.scratch != nil {
		return cfg.scratch
	}
	return &attemptScratch{}
}
