package inspect

// The memory-layout census folds one host's guest-visible memory
// organization into a single structure: how the guest's address space
// is mapped (EPT page-size distribution), what the host allocator's
// free lists look like (buddy occupancy — the attacker-relevant
// fragmentation state), how much of each virtio-mem region is plugged,
// and who owns the physical frames. Every field is a sum or a count,
// so assembling it never depends on map iteration order and the same
// seed always produces the same census.

// EPTCensus is the guest translation-structure summary, aggregated
// over every live VM on the host.
type EPTCensus struct {
	// Leaves4K and Leaves2M count installed leaf mappings by page
	// size (hypervisor bookkeeping, O(1) per host).
	Leaves4K int `json:"leaves4k"`
	Leaves2M int `json:"leaves2m"`
	// Splits counts multihit-countermeasure hugepage demotions.
	Splits int `json:"splits"`
	// TablePages counts hypervisor-allocated table pages by level
	// (index = level; level 1 is the paper's "EPT pages" count E).
	TablePages []int `json:"tablePages"`
	// TotalTables is the all-level table-page count including IOPTs.
	TotalTables int `json:"totalTables"`
}

// BuddyCensus is the host page allocator's freelist occupancy — the
// simulation's /proc/pagetypeinfo.
type BuddyCensus struct {
	FreePages uint64 `json:"freePages"`
	// PCPPages counts pages parked on the per-CPU lists.
	PCPPages int `json:"pcpPages"`
	// NoiseUnmovable is the Figure 3 "noise pages" metric: free
	// small-order MIGRATE_UNMOVABLE pages.
	NoiseUnmovable int `json:"noiseUnmovable"`
	// FreeBlocks is the [migratetype][order] free-block table.
	FreeBlocks [][]int `json:"freeBlocks"`
}

// VirtioCensus aggregates the virtio-mem plug state across devices.
type VirtioCensus struct {
	Devices          int    `json:"devices"`
	RegionBytes      uint64 `json:"regionBytes"`
	PluggedBytes     uint64 `json:"pluggedBytes"`
	RequestedBytes   uint64 `json:"requestedBytes"`
	PluggedSubBlocks int    `json:"pluggedSubBlocks"`
	// NACKs counts refused plug/unplug requests (e.g. quarantined).
	NACKs int `json:"nacks"`
}

// PhysCensus is frame-ownership accounting from the host's side.
type PhysCensus struct {
	Frames int `json:"frames"`
	// Materialized counts frames whose contents have been touched
	// (the simulation materializes lazily).
	Materialized int `json:"materialized"`
	// KernelPages are frames the host kernel holds forever.
	KernelPages int `json:"kernelPages"`
	// TableFrames are live EPT/IOPT table frames (the steering
	// target).
	TableFrames int `json:"tableFrames"`
	// ReleasedBlocks counts order-9 blocks VMs released via
	// virtio-mem.
	ReleasedBlocks int `json:"releasedBlocks"`
	// FlipsApplied counts Rowhammer flips committed to memory.
	FlipsApplied int `json:"flipsApplied"`
}

// Census is one host's folded memory-layout state.
type Census struct {
	// SimSeconds is the host clock reading the census was taken at.
	SimSeconds float64 `json:"simSeconds"`
	// Geometry names the DRAM addressing model.
	Geometry string `json:"geometry"`
	// VMs is the live guest count.
	VMs int `json:"vms"`
	// Crashed marks a machine-checked host.
	Crashed bool `json:"crashed,omitempty"`

	EPT    EPTCensus    `json:"ept"`
	Buddy  BuddyCensus  `json:"buddy"`
	Virtio VirtioCensus `json:"virtio"`
	Phys   PhysCensus   `json:"phys"`
}

// TaggedCensus is a census attributed to the plan unit whose host it
// describes ("" for a single-campaign run).
type TaggedCensus struct {
	Unit   string `json:"unit,omitempty"`
	Census Census `json:"census"`
}

// CensusSnapshot is the JSON form served at /api/census and embedded
// in run artifacts: one entry per plan unit in declaration order, plus
// the live host's current census last when one is bound. Censuses is
// always non-nil.
type CensusSnapshot struct {
	Censuses []TaggedCensus `json:"censuses"`
}

// flatten emits every numeric census field as "prefix.path" rows, the
// form hh diff compares with zero default tolerance.
func (c Census) flatten(prefix string, emit func(key string, v float64)) {
	emit(prefix+"sim_seconds", c.SimSeconds)
	emit(prefix+"vms", float64(c.VMs))
	crashed := 0.0
	if c.Crashed {
		crashed = 1
	}
	emit(prefix+"crashed", crashed)
	emit(prefix+"ept.leaves4k", float64(c.EPT.Leaves4K))
	emit(prefix+"ept.leaves2m", float64(c.EPT.Leaves2M))
	emit(prefix+"ept.splits", float64(c.EPT.Splits))
	emit(prefix+"ept.total_tables", float64(c.EPT.TotalTables))
	emit(prefix+"buddy.free_pages", float64(c.Buddy.FreePages))
	emit(prefix+"buddy.pcp_pages", float64(c.Buddy.PCPPages))
	emit(prefix+"buddy.noise_unmovable", float64(c.Buddy.NoiseUnmovable))
	emit(prefix+"virtio.plugged_bytes", float64(c.Virtio.PluggedBytes))
	emit(prefix+"virtio.plugged_subblocks", float64(c.Virtio.PluggedSubBlocks))
	emit(prefix+"virtio.nacks", float64(c.Virtio.NACKs))
	emit(prefix+"phys.materialized", float64(c.Phys.Materialized))
	emit(prefix+"phys.table_frames", float64(c.Phys.TableFrames))
	emit(prefix+"phys.released_blocks", float64(c.Phys.ReleasedBlocks))
	emit(prefix+"phys.flips_applied", float64(c.Phys.FlipsApplied))
}

// FlattenCensuses emits comparison rows for every tagged census.
func FlattenCensuses(s *CensusSnapshot, emit func(key string, v float64)) {
	if s == nil {
		return
	}
	for _, tc := range s.Censuses {
		prefix := "census."
		if tc.Unit != "" {
			prefix = "census[" + tc.Unit + "]."
		}
		tc.Census.flatten(prefix, emit)
	}
}
