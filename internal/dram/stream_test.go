package dram

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"testing"

	"hyperhammer/internal/ledger"
	"hyperhammer/internal/metrics"
)

// copySink records the flip-provenance stream with the borrowed Begin
// slices deep-copied: FlipOpInfo's aggressor slices alias module
// scratch that the next operation reuses, so a faithful recorder must
// copy them at delivery time.
type copySink struct {
	ops    []FlipOpInfo
	events []FlipEvent
}

func (s *copySink) BeginHammerOp(info FlipOpInfo) {
	info.Aggressors = append([]RowRef(nil), info.Aggressors...)
	info.Neutralized = append([]RowRef(nil), info.Neutralized...)
	s.ops = append(s.ops, info)
}

func (s *copySink) RecordFlipEvent(ev FlipEvent) { s.events = append(s.events, ev) }

// randomOps builds a deterministic adversarial op sequence: duplicate
// aggressors, singletons, empty sets, zero and negative rounds,
// over-window rounds, and rows clustered so blast radii overlap.
func randomOps(geo *Geometry, n int) []HammerOp {
	rng := rand.New(rand.NewPCG(0xBADC0FFEE, 0x5EED))
	ops := make([]HammerOp, 0, n)
	for i := 0; i < n; i++ {
		var op HammerOp
		switch rng.IntN(8) {
		case 0: // empty aggressor set
		case 1: // singleton, doubled (the classic a-vs-a shape)
			r := RowRef{rng.IntN(geo.Banks()), 8 + rng.IntN(64)}
			op.Aggressors = []RowRef{r, r}
		default:
			k := 1 + rng.IntN(4)
			for j := 0; j < k; j++ {
				op.Aggressors = append(op.Aggressors, RowRef{
					Bank: rng.IntN(geo.Banks()),
					Row:  8 + rng.IntN(64), // clustered: neighborhoods overlap
				})
			}
			if rng.IntN(3) == 0 { // duplicate an existing aggressor
				op.Aggressors = append(op.Aggressors, op.Aggressors[rng.IntN(len(op.Aggressors))])
			}
		}
		switch rng.IntN(6) {
		case 0:
			op.Rounds = 0
		case 1:
			op.Rounds = -3
		case 2:
			op.Rounds = windowActivations + 500_000 // clips
		default:
			op.Rounds = 50_000 + rng.IntN(400_000)
		}
		ops = append(ops, op)
	}
	return ops
}

// TestHammerStreamGolden drives one adversarial op sequence through
// Module.Hammer and pins a digest of everything the module emits: the
// candidate flips, the BeginHammerOp stream, the flip events, the
// metrics rows and the dram.rng/dram.row/dram.flip ledger streams. The
// cell population is dense and the thresholds low, so the flaky-cell
// draws, the TRR audit and the window clip all fire. Any reordering of
// the per-op evaluation moves a digest.
func TestHammerStreamGolden(t *testing.T) {
	want := map[string]string{
		"corei3/trr=false/sink=false": "c9ca6da9e729ff30 flips=81 ops=0 events=0",
		"corei3/trr=false/sink=true":  "572c62bb2368518e flips=81 ops=14 events=153",
		"corei3/trr=true/sink=false":  "25fefc9dd467b243 flips=44 ops=0 events=0",
		"corei3/trr=true/sink=true":   "90709f5ae43498ba flips=44 ops=14 events=153",
		"xeone3/trr=false/sink=false": "b05129ad512fa094 flips=81 ops=0 events=0",
		"xeone3/trr=false/sink=true":  "15acdbc92874011f flips=81 ops=14 events=153",
		"xeone3/trr=true/sink=false":  "3ac7d9a4ef3c7fb4 flips=44 ops=0 events=0",
		"xeone3/trr=true/sink=true":   "55cebe58fe4af0e8 flips=44 ops=14 events=153",
	}
	geometries := []struct {
		name string
		geo  func() *Geometry
	}{{"corei3", CoreI310100}, {"xeone3", XeonE32124}}
	for _, g := range geometries {
		for _, trrOn := range []bool{false, true} {
			for _, sinkOn := range []bool{false, true} {
				name := fmt.Sprintf("%s/trr=%v/sink=%v", g.name, trrOn, sinkOn)
				t.Run(name, func(t *testing.T) {
					cfg := S2FaultModel(11)
					cfg.CellsPerRow, cfg.StableFraction = 2.5, 0.3
					cfg.ThresholdMin, cfg.ThresholdMax = 60_000, 250_000
					if trrOn {
						cfg.TRR = &TRRConfig{Slots: 1, Seed: 99}
					}
					m := NewModule(g.geo(), cfg)
					reg := metrics.New()
					m.SetMetrics(reg)
					led := ledger.New(ledger.Config{})
					m.SetLedger(led)
					sink := &copySink{}
					if sinkOn {
						m.SetFlipSink(sink)
					}
					h := fnv.New64a()
					fired := 0
					for _, op := range randomOps(m.Geo, 400) {
						flips := m.Hammer(op)
						fired += len(flips)
						fmt.Fprintf(h, "%+v\n", flips)
					}
					fmt.Fprintf(h, "%+v\n%+v\n", sink.ops, sink.events)
					fmt.Fprintf(h, "%v\n", reg.Snapshot().Rows())
					fmt.Fprintf(h, "%+v\n", led.Snapshot().Units)
					got := fmt.Sprintf("%016x flips=%d ops=%d events=%d",
						h.Sum64(), fired, len(sink.ops), len(sink.events))
					if got != want[name] {
						t.Errorf("stream digest = %q, want %q", got, want[name])
					}
				})
			}
		}
	}
}
