package dram

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

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

// TestHammerBatchMatchesSequential drives identical op sequences
// through the per-op and batched entry points on twin modules and
// requires byte-identical candidate flips, flip-event streams, and
// metrics snapshots, across TRR on/off, sink attached/detached, and
// both bank geometries.
func TestHammerBatchMatchesSequential(t *testing.T) {
	geometries := map[string]func() *Geometry{
		"corei3": CoreI310100,
		"xeone3": XeonE32124,
	}
	for geoName, geoFn := range geometries {
		for _, trrOn := range []bool{false, true} {
			for _, sinkOn := range []bool{false, true} {
				name := fmt.Sprintf("%s/trr=%v/sink=%v", geoName, trrOn, sinkOn)
				t.Run(name, func(t *testing.T) {
					cfg := S2FaultModel(11)
					// Thresholds low enough that the clustered rows
					// actually fire, exercising the RNG-draw paths.
					cfg.ThresholdMin, cfg.ThresholdMax = 60_000, 250_000
					if trrOn {
						cfg.TRR = &TRRConfig{Slots: 1, Seed: 99}
					}
					seq := NewModule(geoFn(), cfg)
					bat := NewModule(geoFn(), cfg)

					var seqSink, batSink *copySink
					if sinkOn {
						seqSink, batSink = &copySink{}, &copySink{}
						seq.SetFlipSink(seqSink)
						bat.SetFlipSink(batSink)
					}
					seqReg, batReg := metrics.New(), metrics.New()
					seq.SetMetrics(seqReg)
					bat.SetMetrics(batReg)

					ops := randomOps(seq.Geo, 160)
					var seqFlips, batFlips []CandidateFlip
					for _, op := range ops {
						seqFlips = append(seqFlips, seq.Hammer(op)...)
					}
					// Varying chunk sizes: batches of 1, small batches,
					// and one large tail batch.
					chunks := []int{1, 1, 3, 7, 16, len(ops)}
					for i := 0; i < len(ops); {
						n := chunks[0]
						chunks = chunks[1:]
						if n > len(ops)-i {
							n = len(ops) - i
						}
						batFlips = append(batFlips, bat.HammerBatch(ops[i:i+n])...)
						i += n
					}

					if !reflect.DeepEqual(seqFlips, batFlips) {
						t.Fatalf("candidate flips diverge:\nseq: %d flips %+v\nbat: %d flips %+v",
							len(seqFlips), seqFlips, len(batFlips), batFlips)
					}
					if sinkOn {
						if !reflect.DeepEqual(seqSink.ops, batSink.ops) {
							t.Fatalf("BeginHammerOp streams diverge:\nseq: %+v\nbat: %+v", seqSink.ops, batSink.ops)
						}
						if !reflect.DeepEqual(seqSink.events, batSink.events) {
							t.Fatalf("flip-event streams diverge:\nseq: %+v\nbat: %+v", seqSink.events, batSink.events)
						}
					}
					if sr, br := seqReg.Snapshot().Rows(), batReg.Snapshot().Rows(); !reflect.DeepEqual(sr, br) {
						t.Fatalf("metrics snapshots diverge:\nseq: %v\nbat: %v", sr, br)
					}
				})
			}
		}
	}
}
