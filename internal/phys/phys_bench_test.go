package phys

import (
	"testing"

	"hyperhammer/internal/memdef"
)

func BenchmarkWordPattern(b *testing.B) {
	m := New(16 * memdef.MiB)
	m.FillWord(100, 0x55)
	addr := memdef.HPA(100*memdef.PageSize + 64)
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += m.Word(addr)
	}
	_ = sink
}

func BenchmarkWordMaterialized(b *testing.B) {
	m := New(16 * memdef.MiB)
	m.SetWord(100*memdef.PageSize, 1) // two changed words: a full frame
	m.SetWord(100*memdef.PageSize+8, 1)
	addr := memdef.HPA(100*memdef.PageSize + 64)
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += m.Word(addr)
	}
	_ = sink
}

func BenchmarkFillWord(b *testing.B) {
	m := New(16 * memdef.MiB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.FillWord(memdef.PFN(i&1023), uint64(i))
	}
}

func BenchmarkFlipBit(b *testing.B) {
	m := New(16 * memdef.MiB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := memdef.HPA((i&1023)*memdef.PageSize + i&0xFF8)
		m.FlipBit(addr, uint(i&7), i&8 == 0)
	}
}

// BenchmarkOneWordFrames zeroes a frame and writes one word into it,
// the shape of a fresh IOPT leaf; steady state allocates nothing.
func BenchmarkOneWordFrames(b *testing.B) {
	m := New(16 * memdef.MiB)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := memdef.PFN(i & 1023)
		m.ZeroPage(p)
		m.SetWord(p.HPAOf()+memdef.HPA(i&511)*8, uint64(i)|1)
	}
}
