package phys

import (
	"reflect"
	"testing"

	"hyperhammer/internal/memdef"
)

func TestNewMemoryIsZero(t *testing.T) {
	m := New(1 * memdef.MiB)
	if m.Frames() != 256 {
		t.Fatalf("Frames() = %d, want 256", m.Frames())
	}
	for _, a := range []memdef.HPA{0, 8, 4096, 1*memdef.MiB - 8} {
		if w := m.Word(a); w != 0 {
			t.Errorf("Word(%#x) = %#x, want 0", a, w)
		}
	}
	if m.MaterializedFrames() != 0 {
		t.Errorf("fresh memory materialized %d frames", m.MaterializedFrames())
	}
}

func TestWordWriteRead(t *testing.T) {
	m := New(64 * memdef.KiB)
	m.SetWord(0x2008, 0xDEADBEEF)
	if got := m.Word(0x2008); got != 0xDEADBEEF {
		t.Errorf("Word = %#x", got)
	}
	if got := m.Word(0x2000); got != 0 {
		t.Errorf("neighbor word = %#x, want 0", got)
	}
	if m.MaterializedFrames() != 1 {
		t.Errorf("materialized %d frames, want 1", m.MaterializedFrames())
	}
}

func TestWritingPatternValueStaysCompact(t *testing.T) {
	m := New(64 * memdef.KiB)
	m.FillWord(3, 0x42)
	m.SetWord(3*memdef.PageSize+16, 0x42) // same value: no promotion
	if m.MaterializedFrames() != 0 {
		t.Errorf("materialized %d frames writing the pattern value", m.MaterializedFrames())
	}
	m.SetWord(3*memdef.PageSize+16, 0x43)
	if m.MaterializedFrames() != 1 {
		t.Errorf("materialized %d frames after divergent write", m.MaterializedFrames())
	}
	if got := m.Word(3*memdef.PageSize + 24); got != 0x42 {
		t.Errorf("pattern word lost on materialize: %#x", got)
	}
}

func TestFillWordAndZeroPage(t *testing.T) {
	m := New(64 * memdef.KiB)
	m.FillWord(2, 0xABCD)
	for i := 0; i < 512; i++ {
		if got := m.PageWord(2, i); got != 0xABCD {
			t.Fatalf("PageWord(2,%d) = %#x", i, got)
		}
	}
	m.SetPageWord(2, 100, 7)
	m.ZeroPage(2)
	if got := m.PageWord(2, 100); got != 0 {
		t.Errorf("after ZeroPage word = %#x", got)
	}
	if m.MaterializedFrames() != 0 {
		t.Errorf("ZeroPage left %d materialized frames", m.MaterializedFrames())
	}
}

func TestPageUniform(t *testing.T) {
	m := New(64 * memdef.KiB)
	m.FillWord(1, 9)
	if w, ok := m.PageUniform(1); !ok || w != 9 {
		t.Errorf("PageUniform = %#x,%v, want 9,true", w, ok)
	}
	m.SetPageWord(1, 5, 10)
	if _, ok := m.PageUniform(1); ok {
		t.Error("PageUniform true after divergent write")
	}
	m.SetPageWord(1, 5, 9)
	if w, ok := m.PageUniform(1); !ok || w != 9 {
		t.Errorf("PageUniform on re-uniformed page = %#x,%v", w, ok)
	}
}

func TestFlipBitDirections(t *testing.T) {
	m := New(64 * memdef.KiB)
	const addr = memdef.HPA(0x1003) // byte 3 of a word
	// Bit currently 0: 1->0 flip must not fire, 0->1 must.
	if m.FlipBit(addr, 5, true) {
		t.Error("1->0 flip fired on a zero bit")
	}
	if !m.FlipBit(addr, 5, false) {
		t.Error("0->1 flip did not fire on a zero bit")
	}
	want := uint64(1) << (3*8 + 5)
	if got := m.Word(0x1000); got != want {
		t.Errorf("word after flip = %#x, want %#x", got, want)
	}
	// Now the bit is 1: 0->1 must not fire, 1->0 must.
	if m.FlipBit(addr, 5, false) {
		t.Error("0->1 flip fired on a one bit")
	}
	if !m.FlipBit(addr, 5, true) {
		t.Error("1->0 flip did not fire on a one bit")
	}
	if got := m.Word(0x1000); got != 0 {
		t.Errorf("word after round trip = %#x, want 0", got)
	}
}

func TestFlipBitOnPatternPage(t *testing.T) {
	m := New(64 * memdef.KiB)
	m.FillWord(4, ^uint64(0))
	a := memdef.HPA(4*memdef.PageSize + 8)
	if !m.FlipBit(a, 0, true) {
		t.Fatal("flip on all-ones pattern page failed")
	}
	if got := m.Word(a); got != ^uint64(0)-1 {
		t.Errorf("flipped word = %#x", got)
	}
	// Other words retain the pattern.
	if got := m.Word(a + 8); got != ^uint64(0) {
		t.Errorf("unflipped word = %#x", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := New(64 * memdef.KiB)
	mustPanic(t, func() { m.Word(64 * memdef.KiB) })
	mustPanic(t, func() { m.Word(1) }) // unaligned
	mustPanic(t, func() { m.SetWord(3, 0) })
	mustPanic(t, func() { m.FillWord(memdef.PFN(16), 0) })
	mustPanic(t, func() { m.FlipBit(0, 9, true) })
	mustPanic(t, func() { New(100) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

// TestFrameRecordIsPointerFree pins the frame record's layout: 16 bytes
// with no pointer, so a 16 GiB host's 64 MiB frame array is never
// scanned by the collector.
func TestFrameRecordIsPointerFree(t *testing.T) {
	typ := reflect.TypeOf(frame{})
	if typ.Size() != 16 {
		t.Errorf("frame is %d bytes, want 16", typ.Size())
	}
	for i := range typ.NumField() {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("frame field %s has kind %v, want an unsigned integer", f.Name, f.Type.Kind())
		}
	}
}
