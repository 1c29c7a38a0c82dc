package dram

import (
	"testing"

	"hyperhammer/internal/memdef"
)

func BenchmarkBankFunction(b *testing.B) {
	g := XeonE32124()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += g.Bank(memdef.HPA(i) * 64)
	}
	_ = sink
}

func BenchmarkComposeLine(b *testing.B) {
	g := CoreI310100()
	lines := g.LinesPerBankRow()
	var sink memdef.HPA
	for i := 0; i < b.N; i++ {
		sink += g.ComposeLine(i&31, i&65535, i%lines)
	}
	_ = sink
}

// benchPairs picks aggressor pairs whose ±2 neighborhoods carry no
// vulnerable cells, so the steady-state loop exercises the full
// pressure-spread and threshold-crossing machinery without the
// result-slice allocation a fired flip implies — the configuration
// TestHammerAllocatesNothing holds to zero allocations. Selection is
// deterministic (it only consults the seeded cell population), and the
// probe warms the module's cell cache so no lazy generation happens
// inside the timed loop.
func benchPairs(m *Module, want int) [][2]RowRef {
	pairs := make([][2]RowRef, 0, want)
	for bank := 0; len(pairs) < want; bank++ {
		bank %= m.Geo.Banks()
		row := (len(pairs)*1117 + bank*37) % (m.Geo.Rows() - 4)
		clean := true
		for v := row - 2; v <= row+3; v++ {
			if v >= 0 && len(m.VulnerableCells(bank, v)) > 0 {
				clean = false
			}
		}
		if clean {
			pairs = append(pairs, [2]RowRef{{bank, row}, {bank, row + 1}})
		}
	}
	return pairs
}

// nopSink is the cheapest possible flip-provenance consumer; its
// presence forces the TRR audit walk to run.
type nopSink struct{}

func (nopSink) BeginHammerOp(FlipOpInfo)  {}
func (nopSink) RecordFlipEvent(FlipEvent) {}

// hammerPairs is how many distinct aggressor pairs a hammer loop
// cycles through: one sweep across a profiled buffer.
const hammerPairs = 64

// hammerLoop returns a step that hammers the next of hammerPairs clean
// pairs on a fresh S1 module, one 250k-round op per call. With trr the
// module runs a 2-slot tracker and a flip sink, so two same-bank
// aggressors are fully neutralized and every op takes the veto audit.
func hammerLoop(trr bool) func() {
	cfg := S1FaultModel(1)
	if trr {
		cfg.TRR = &TRRConfig{Slots: 2, Seed: 7}
	}
	m := NewModule(CoreI310100(), cfg)
	if trr {
		m.SetFlipSink(nopSink{})
	}
	pairs := benchPairs(m, hammerPairs)
	aggs := make([]RowRef, 2)
	i := 0
	return func() {
		p := pairs[i%hammerPairs]
		i++
		aggs[0], aggs[1] = p[0], p[1]
		m.Hammer(HammerOp{Aggressors: aggs, Rounds: 250_000})
	}
}

// sweep runs step once per pair.
func sweep(step func()) {
	for range hammerPairs {
		step()
	}
}

// TestHammerAllocatesNothing holds the steady-state hammer path to zero
// allocations in the three shapes the hammer benchmarks time: one op,
// a sweep of one op per pair, and one op through the TRR veto audit.
// A sweep first sizes each module's first-touch state, which a single
// cold op would count.
func TestHammerAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		trr   bool
		sweep bool
	}{
		{"op", false, false},
		{"batch", false, true},
		{"trr-audit", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			step := hammerLoop(tc.trr)
			sweep(step)
			run := step
			if tc.sweep {
				run = func() { sweep(step) }
			}
			if n := testing.AllocsPerRun(100, run); n != 0 {
				t.Errorf("%v allocations per run, want 0", n)
			}
		})
	}
}

func BenchmarkHammerOp(b *testing.B) {
	step := hammerLoop(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkHammerBatch runs one op per pair per iteration, the shape
// of one hammer sweep across a profiled buffer.
func BenchmarkHammerBatch(b *testing.B) {
	step := hammerLoop(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep(step)
	}
}

func BenchmarkHammerTRRAudit(b *testing.B) {
	step := hammerLoop(true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

func BenchmarkVulnerableCellsLookup(b *testing.B) {
	m := NewModule(CoreI310100(), S1FaultModel(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.VulnerableCells(i&31, (i*31)&65535)
	}
}
