package hostload

import (
	"testing"

	"hyperhammer/internal/buddy"
	"hyperhammer/internal/memdef"
)

func TestProfiles(t *testing.T) {
	if PlainKVM().ExtraNoisePages >= OpenStack().ExtraNoisePages {
		t.Error("OpenStack must leave more noise than plain KVM (Figure 3)")
	}
}

func TestAttachCreatesNoise(t *testing.T) {
	alloc := buddy.New(0, 262144)
	before := alloc.NoisePages(memdef.MigrateUnmovable)
	p := Profile{Name: "test", ExtraNoisePages: 5000, ChurnHeld: 100, ChurnPerTick: 10}
	w, err := Attach(alloc, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	noise := alloc.NoisePages(memdef.MigrateUnmovable)
	if noise-before < 4000 {
		t.Errorf("noise %d -> %d; want ~5000 more", before, noise)
	}
	if w.Held() != 5100 {
		t.Errorf("Held = %d", w.Held())
	}
	free := alloc.FreePages()
	for i := 0; i < 50; i++ {
		w.Tick()
	}
	// Churn is net-zero on free pages (modulo PCP motion).
	after := alloc.FreePages()
	if diff := int64(after) - int64(free); diff < -64 || diff > 64 {
		t.Errorf("churn leaked %d pages", diff)
	}
	w.Detach()
	if w.Held() != 0 {
		t.Error("Detach left held pages")
	}
}

func TestAttachFailsWhenTooSmall(t *testing.T) {
	alloc := buddy.New(0, 1024)
	if _, err := Attach(alloc, OpenStack(), 1); err == nil {
		t.Error("OpenStack profile fit in 4 MiB")
	}
}

func TestTickChangesListOrdering(t *testing.T) {
	alloc := buddy.New(0, 65536)
	w, err := Attach(alloc, PlainKVM(), 7)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := alloc.AllocPage(memdef.MigrateUnmovable)
	alloc.FreePage(a, memdef.MigrateUnmovable)
	w.Tick()
	w.Tick()
	// Not asserting a specific permutation — just that ticking with a
	// live workload keeps the allocator functional.
	if _, err := alloc.AllocPage(memdef.MigrateUnmovable); err != nil {
		t.Fatal(err)
	}
}
