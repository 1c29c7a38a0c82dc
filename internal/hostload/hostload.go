// Package hostload generates host-side background memory pressure,
// modelling the difference between the paper's bare-KVM hosts (S1, S2)
// and the OpenStack deployment (S3): S3's management services hold far
// more MIGRATE_UNMOVABLE kernel memory, which is why Figure 3(b) starts
// with many more noise pages and takes much longer to exhaust.
//
// S3 is modelled by the extra noise pages Attach leaves free and the
// held set it takes, nothing more. Tick, which churns the held set, is
// not yet driven by any host clock, so ChurnPerTick changes no result
// today.
package hostload

import (
	"math/rand/v2"

	"hyperhammer/internal/buddy"
	"hyperhammer/internal/memdef"
)

// Profile describes one host workload character.
type Profile struct {
	// Name labels the profile in experiment output.
	Name string
	// ExtraNoisePages is additional free small-order unmovable pages
	// the workload's past allocations leave behind, on top of the
	// host's base boot noise.
	ExtraNoisePages int
	// ChurnHeld is the number of unmovable pages the workload holds
	// and rotates during the experiment.
	ChurnHeld int
	// ChurnPerTick is how many held pages are released and
	// reacquired per Tick. Nothing calls Tick yet (see the package
	// doc).
	ChurnPerTick int
}

// PlainKVM models S1/S2: an idle KVM host with modest service noise.
func PlainKVM() Profile {
	return Profile{Name: "plain KVM (S1/S2)", ExtraNoisePages: 0, ChurnHeld: 256, ChurnPerTick: 8}
}

// OpenStack models S3: DevStack's nova/libvirt/monitoring stack.
func OpenStack() Profile {
	return Profile{Name: "OpenStack (S3)", ExtraNoisePages: 45000, ChurnHeld: 4096, ChurnPerTick: 128}
}

// Workload is an instantiated host load.
type Workload struct {
	profile Profile
	alloc   *buddy.Allocator
	rng     *rand.Rand
	held    []memdef.PFN
}

// Attach starts the workload on a host allocator: it creates the
// profile's extra noise (allocate-then-free interleavings, like boot
// noise) and takes its held working set.
func Attach(alloc *buddy.Allocator, p Profile, seed uint64) (*Workload, error) {
	w := &Workload{
		profile: p,
		alloc:   alloc,
		rng:     rand.New(rand.NewPCG(seed, seed^0x9E3779B97F4A7C15)),
	}
	// Extra noise: allocate everything first, then free an interleaved
	// subset. Freeing as we go would only hand pages straight back to
	// the next allocation; the allocate-then-free order is what leaves
	// kept pages pinning free neighbours apart, the fragmented state a
	// long-running service stack exhibits.
	var pages []memdef.PFN
	for i := 0; i < 2*p.ExtraNoisePages+p.ChurnHeld; i++ {
		pg, err := alloc.Alloc(0, memdef.MigrateUnmovable)
		if err != nil {
			return nil, err
		}
		pages = append(pages, pg)
	}
	for i, pg := range pages {
		if i < 2*p.ExtraNoisePages && i%2 == 1 {
			alloc.Free(pg, 0, memdef.MigrateUnmovable)
		} else {
			w.held = append(w.held, pg)
		}
	}
	return w, nil
}

// Tick performs one round of background churn: release a few held
// pages and grab replacements, perturbing the free lists the way live
// host services do.
func (w *Workload) Tick() {
	for i := 0; i < w.profile.ChurnPerTick && len(w.held) > 0; i++ {
		j := w.rng.IntN(len(w.held))
		w.alloc.FreePage(w.held[j], memdef.MigrateUnmovable)
		if pg, err := w.alloc.AllocPage(memdef.MigrateUnmovable); err == nil {
			w.held[j] = pg
		} else {
			w.held[j] = w.held[len(w.held)-1]
			w.held = w.held[:len(w.held)-1]
		}
	}
}

// Held returns the current held working-set size in pages.
func (w *Workload) Held() int { return len(w.held) }

// Detach frees the workload's held pages.
func (w *Workload) Detach() {
	for _, pg := range w.held {
		w.alloc.FreePage(pg, memdef.MigrateUnmovable)
	}
	w.held = nil
}
