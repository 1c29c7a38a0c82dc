package kvm

import (
	"testing"

	"hyperhammer/internal/dram"
	"hyperhammer/internal/memdef"
)

// BenchmarkVMLifecycle measures one Table 3 attempt's VM lifecycle on
// a 16 GiB S1 host: create a 13 GiB VM with one VFIO group (plugging
// and zeroing its backing, with 500 boot-time hugepage splits), map
// 60,000 DMA windows 2 MiB apart (one IOPT leaf each), and destroy it,
// freeing the tables and the backing. The host boots once, outside the
// timer.
func BenchmarkVMLifecycle(b *testing.B) {
	h, err := NewHost(Config{
		Geometry:       dram.CoreI310100(),
		Fault:          dram.S1FaultModel(1),
		THP:            true,
		NXHugepages:    true,
		BootNoisePages: 30000,
		Seed:           1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm, err := h.CreateVM(VMConfig{MemSize: 13 * memdef.GiB, VFIOGroups: 1, BootSplits: 500})
		if err != nil {
			b.Fatal(err)
		}
		for w := 0; w < 60000; w++ {
			if err := vm.MapDMA(0, memdef.IOVA(w)*memdef.HugePageSize, 0); err != nil {
				b.Fatal(err)
			}
		}
		vm.Destroy()
	}
}
