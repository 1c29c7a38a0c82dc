package kvm

import (
	"slices"

	"hyperhammer/internal/dram"
	"hyperhammer/internal/ept"
	"hyperhammer/internal/memdef"
	"hyperhammer/internal/memmap"
)

// This file hosts two kinds of observation APIs.
//
// Guest-equivalent observations (ContentFlipsSince, ChangedMappings)
// return exactly what the guest would learn by exhaustively scanning
// its own memory — the guest layer charges full scan time when it uses
// them. They exist because iterating 3 million simulated pages per
// scan in Go would make the experiments computationally infeasible,
// while the observable result is derivable from the flip log and the
// translation state. See DESIGN.md §3.
//
// Host-side instrumentation (EPTReuseStats) corresponds to the two
// functions the paper adds to the hypervisor for the Table 2
// experiment: logging released PFNs and dumping EPT pages.

// GuestFlip is a bit flip as the guest observes it in its own memory:
// located by guest physical address, with no host information.
type GuestFlip struct {
	// GPA is the guest physical address of the byte whose bit
	// flipped, under the backing in effect when the flip landed.
	GPA memdef.GPA
	// Bit is the bit index within that byte.
	Bit uint
	// Direction is the observed flip direction.
	Direction dram.FlipDirection
}

// ContentFlipsSince translates the host flip log after the cursor into
// guest-visible content flips: flips that landed in frames currently
// backing this VM's plugged memory. It returns the flips and the new
// cursor.
//
// Contract: valid while the guest's EPT is uncorrupted (profiling
// phase). Once EPT entries are being flipped or rewritten, mapping
// changes — not content attribution — are the relevant observation.
func (vm *VM) ContentFlipsSince(cursor int) ([]GuestFlip, int) {
	log := vm.host.flipLog
	var out []GuestFlip
	for _, f := range log[cursor:] {
		owner, gpa, ok := vm.host.guestPage(memdef.PFNOf(f.Addr))
		if !ok || owner != vm {
			continue
		}
		out = append(out, GuestFlip{
			GPA:       gpa + memdef.GPA(memdef.PageOffset(f.Addr)),
			Bit:       f.Bit,
			Direction: f.Direction,
		})
	}
	return out, len(log)
}

// MappingChange reports one guest page whose translation no longer
// points at its original backing frame — what the guest detects as a
// wrong magic value (Section 4.3, "Identifying Mapping Change").
type MappingChange struct {
	// GPA is the 4 KiB guest page whose mapping changed.
	GPA memdef.GPA
	// Faulted is set when the page no longer translates at all
	// (entry became non-present or misconfigured).
	Faulted bool
}

// ChangedMappings compares the current EPT translation of every
// plugged guest page against the hypervisor's backing records and
// returns the differing pages. It is observationally what the guest
// gets from re-reading the magic value in every page it marked.
func (vm *VM) ChangedMappings() []MappingChange {
	return vm.AppendChangedMappings(nil)
}

// AppendChangedMappings is ChangedMappings appending into a
// caller-provided buffer — the allocation-free form for the exploit
// step's repeated post-probe rescans. Chunks are visited in ascending
// GPA order.
func (vm *VM) AppendChangedMappings(out []MappingChange) []MappingChange {
	for i, cb := range vm.backing {
		if cb == nil {
			continue
		}
		chunk := memdef.GPA(i) * memdef.HugePageSize
		tr, err := vm.ept.Translate(uint64(chunk))
		if err != nil {
			out = append(out, MappingChange{GPA: chunk, Faulted: true})
			continue
		}
		if tr.Level == 2 {
			// Intact hugepage leaf: one comparison covers the chunk.
			if !cb.huge || memdef.PFNOf(tr.HPA) != cb.frames[0] {
				out = append(out, MappingChange{GPA: chunk})
			}
			continue
		}
		// Split chunk. A THP chunk's leaf still in the stride form
		// the split wrote, mapping frames[0]+i at entry i, is intact;
		// any other leaf is compared entry by entry.
		leaf := memdef.PFNOf(tr.EntryAddr)
		if cb.huge && vm.intactStrideLeaf(leaf, cb.frames[0]) {
			continue
		}
		for i := 0; i < memdef.PagesPerHuge; i++ {
			want := cb.frames[0] + memdef.PFN(i)
			if !cb.huge {
				want = cb.frames[i]
			}
			if want == reclaimedFrame {
				continue // ballooned away; unmapped by design
			}
			e := ept.Entry(vm.host.Mem.PageWord(leaf, i))
			pageGPA := chunk + memdef.GPA(i*memdef.PageSize)
			switch {
			case !e.Present():
				out = append(out, MappingChange{GPA: pageGPA, Faulted: true})
			case e.PFN() != want:
				out = append(out, MappingChange{GPA: pageGPA})
			}
		}
	}
	return out
}

// intactStrideLeaf reports whether leaf is in phys's stride form with a
// present entry 0 mapping base and entry 511 mapping base+511, so that
// entry i maps base+i.
func (vm *VM) intactStrideLeaf(leaf, base memdef.PFN) bool {
	w0, ok := vm.host.Mem.PageStride(leaf)
	e := ept.Entry(w0)
	last := ept.Entry(vm.host.Mem.PageWord(leaf, memdef.PagesPerHuge-1))
	return ok && e.Present() && e.PFN() == base && last.PFN() == base+memdef.PagesPerHuge-1
}

// EPTReuseStats is the Table 2 measurement: how many of the pages the
// VM released through virtio-mem ended up holding EPT pages.
type EPTReuseStats struct {
	// ReleasedBlocks is the number of order-9 blocks the VM released
	// (the paper's B).
	ReleasedBlocks int
	// ReleasedPages is B * 512 (the paper's N).
	ReleasedPages int
	// EPTPages is the number of leaf EPT pages in the system (the
	// paper's E).
	EPTPages int
	// ReusedPages is how many released pages now hold EPT pages (the
	// paper's R).
	ReusedPages int
}

// RN returns R/N, the fraction of released pages reused by EPTs.
func (s EPTReuseStats) RN() float64 {
	if s.ReleasedPages == 0 {
		return 0
	}
	return float64(s.ReusedPages) / float64(s.ReleasedPages)
}

// RE returns R/E, the fraction of EPT pages on released memory.
func (s EPTReuseStats) RE() float64 {
	if s.EPTPages == 0 {
		return 0
	}
	return float64(s.ReusedPages) / float64(s.EPTPages)
}

// EPTReuse computes the Table 2 statistics for this VM by intersecting
// the host's released-block log with the VM's current EPT page dump —
// the combination of the paper's two added hypervisor functions. A
// block released more than once counts its reused pages once.
func (vm *VM) EPTReuse() EPTReuseStats {
	bases := slices.Clone(vm.host.releasedLog)
	slices.Sort(bases)
	bases = slices.Compact(bases)
	reused := 0
	for _, base := range bases {
		for i := memdef.PFN(0); i < memdef.PagesPerHuge; i++ {
			if vm.IsEPTLeaf(base + i) {
				reused++
			}
		}
	}
	blocks := len(vm.host.releasedLog)
	return EPTReuseStats{
		ReleasedBlocks: blocks,
		ReleasedPages:  blocks * memdef.PagesPerHuge,
		EPTPages:       vm.ept.TableCountByLevel()[1],
		ReusedPages:    reused,
	}
}

// IsEPTLeaf reports whether host frame p holds one of the VM's leaf
// EPT tables, read from the memmap.
func (vm *VM) IsEPTLeaf(p memdef.PFN) bool {
	return vm.host.frames[p] == memmap.TableDesc(vm.slot, eptStructure, 1)
}
