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

// BenchmarkChangedMappings rescans a Table-3-shaped VM whose every
// chunk is exec-split — a 13 GiB VM with one VFIO group on a 16 GiB S1
// host, 6,656 split leaves — the way the exploit step rescans after
// each probe, into a reused buffer. The VM is built outside the timer.
func BenchmarkChangedMappings(b *testing.B) {
	h, err := NewHost(Config{
		Geometry:    dram.CoreI310100(),
		Fault:       dram.S1FaultModel(1),
		THP:         true,
		NXHugepages: true,
		Seed:        1,
	})
	if err != nil {
		b.Fatal(err)
	}
	const size = 13 * memdef.GiB
	vm, err := h.CreateVM(VMConfig{MemSize: size, VFIOGroups: 1})
	if err != nil {
		b.Fatal(err)
	}
	for gpa := memdef.GPA(0); gpa < size; gpa += memdef.HugePageSize {
		if _, err := vm.ExecGPA(gpa); err != nil {
			b.Fatal(err)
		}
	}
	var out []MappingChange
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out = vm.AppendChangedMappings(out[:0]); len(out) != 0 {
			b.Fatalf("%d changed mappings on an intact VM", len(out))
		}
	}
}

// BenchmarkFillPagesGPA fills a 128 MiB THP-backed VM's memory, the
// spray step's bulk write, and reports host time per 4 KiB page.
func BenchmarkFillPagesGPA(b *testing.B) {
	h, err := NewHost(testHostConfig())
	if err != nil {
		b.Fatal(err)
	}
	const size = 128 * memdef.MiB
	vm, err := h.CreateVM(VMConfig{MemSize: size, VFIOGroups: 1})
	if err != nil {
		b.Fatal(err)
	}
	const pages = int(size / memdef.PageSize)
	word := func(k int) uint64 { return uint64(k) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := vm.FillPagesGPA(0, pages, word); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pages), "ns/page")
}
