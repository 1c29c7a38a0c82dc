package ept

import (
	"testing"

	"hyperhammer/internal/memdef"
	"hyperhammer/internal/phys"
)

func benchTable(b *testing.B) *Table {
	b.Helper()
	mem := phys.New(256 * memdef.MiB)
	tbl, err := New(mem, &bumpAlloc{next: 1})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := tbl.Map2M(uint64(i)*memdef.HugePageSize, memdef.PFN(512*(i+1)), PermRW); err != nil {
			b.Fatal(err)
		}
	}
	return tbl
}

func BenchmarkTranslateHuge(b *testing.B) {
	tbl := benchTable(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.Translate(uint64(i%64)*memdef.HugePageSize + 0x1234); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTranslate4K(b *testing.B) {
	tbl := benchTable(b)
	for i := 0; i < 64; i++ {
		if _, err := tbl.SplitHuge(uint64(i)*memdef.HugePageSize, PermRWX); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.Translate(uint64(i%64)*memdef.HugePageSize + 0x1234); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSplitHuge splits one 2 MiB leaf per iteration. Splits are
// one-way (the attack relies on that), so a batch of leaves is mapped
// outside the timer and split in turn, and a fresh batch is mapped only
// when they run out.
func BenchmarkSplitHuge(b *testing.B) {
	const batch = 4096
	var tbl *Table
	next := batch
	for i := 0; i < b.N; i++ {
		if next == batch {
			b.StopTimer()
			// Room for the batch's leaf tables and the tables above them.
			mem := phys.New((batch + 64) * memdef.PageSize)
			var err error
			if tbl, err = New(mem, &bumpAlloc{next: 1}); err != nil {
				b.Fatal(err)
			}
			for j := 0; j < batch; j++ {
				if err := tbl.Map2M(uint64(j)*memdef.HugePageSize, memdef.PFN(512*(j+1)), PermRW); err != nil {
					b.Fatal(err)
				}
			}
			next = 0
			b.StartTimer()
		}
		if _, err := tbl.SplitHuge(uint64(next)*memdef.HugePageSize, PermRWX); err != nil {
			b.Fatal(err)
		}
		next++
	}
}
