package buddy

import (
	"testing"

	"hyperhammer/internal/memdef"
)

func BenchmarkAllocFreeOrder0(b *testing.B) {
	a := New(0, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := a.Alloc(0, memdef.MigrateUnmovable)
		if err != nil {
			b.Fatal(err)
		}
		a.Free(p, 0, memdef.MigrateUnmovable)
	}
}

func BenchmarkAllocFreeOrder9(b *testing.B) {
	a := New(0, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := a.Alloc(memdef.HugeOrder, memdef.MigrateUnmovable)
		if err != nil {
			b.Fatal(err)
		}
		a.Free(p, memdef.HugeOrder, memdef.MigrateUnmovable)
	}
}

func BenchmarkPCPAllocFree(b *testing.B) {
	a := New(0, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := a.AllocPage(memdef.MigrateUnmovable)
		if err != nil {
			b.Fatal(err)
		}
		a.FreePage(p, memdef.MigrateUnmovable)
	}
}

func BenchmarkSteeringChurn(b *testing.B) {
	// The allocation pattern Page Steering exercises: release an
	// order-9 block, then carve it up as order-0 unmovable pages.
	a := New(0, 1<<20)
	block, err := a.Alloc(memdef.HugeOrder, memdef.MigrateUnmovable)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Free(block, memdef.HugeOrder, memdef.MigrateUnmovable)
		var pages [memdef.PagesPerHuge]memdef.PFN
		for j := 0; j < memdef.PagesPerHuge; j++ {
			p, err := a.Alloc(0, memdef.MigrateUnmovable)
			if err != nil {
				b.Fatal(err)
			}
			pages[j] = p
		}
		for _, p := range pages {
			a.Free(p, 0, memdef.MigrateUnmovable)
		}
		block, err = a.Alloc(memdef.HugeOrder, memdef.MigrateUnmovable)
		if err != nil {
			b.Fatal(err)
		}
	}
}
