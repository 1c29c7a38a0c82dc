package ledger

import "fmt"

// Divergence localizes the first point where two ledgers disagree:
// which unit, which sealed epoch (by index and sim time), and which
// stream first split. Epoch is -1 for structural divergences (unit or
// stream sets differ) and for final-state divergences when epoch
// sealing was off.
type Divergence struct {
	Unit       string  `json:"unit"`
	Epoch      int     `json:"epoch"`
	SimSeconds float64 `json:"simSeconds"`
	Stream     string  `json:"stream,omitempty"`
	// FPA/CountA and FPB/CountB are the two sides' states at the
	// divergence point (empty when the stream is missing on a side).
	FPA    string `json:"fpA,omitempty"`
	CountA uint64 `json:"countA,omitempty"`
	FPB    string `json:"fpB,omitempty"`
	CountB uint64 `json:"countB,omitempty"`
	// Detail is the one-line human explanation.
	Detail string `json:"detail"`
}

// Bisect walks two ledger snapshots in parallel — unit by unit, epoch
// by epoch, stream by stream in declaration order — and returns the
// first divergence, or nil when the ledgers agree completely. Because
// streams fold rolling fingerprints, the first divergent epoch bounds
// the first divergent *event* to one sealing interval: everything
// before that epoch was byte-identical.
func Bisect(a, b *Snapshot) *Divergence {
	if a == nil || b == nil {
		if a == b {
			return nil
		}
		return &Divergence{Epoch: -1, Detail: "one ledger is missing"}
	}
	for i := 0; i < len(a.Units) && i < len(b.Units); i++ {
		ua, ub := &a.Units[i], &b.Units[i]
		if ua.Unit != ub.Unit {
			return &Divergence{
				Unit: ua.Unit, Epoch: -1,
				Detail: fmt.Sprintf("unit sequence diverges at position %d: %q vs %q", i, ua.Unit, ub.Unit),
			}
		}
		if d := bisectUnit(ua, ub); d != nil {
			return d
		}
	}
	if len(a.Units) != len(b.Units) {
		extra, side := surplusUnit(a, b)
		return &Divergence{
			Unit: extra, Epoch: -1,
			Detail: fmt.Sprintf("unit %q present only in %s (%d vs %d units)", extra, side, len(a.Units), len(b.Units)),
		}
	}
	return nil
}

func surplusUnit(a, b *Snapshot) (unit, side string) {
	if len(a.Units) > len(b.Units) {
		return a.Units[len(b.Units)].Unit, "the first run"
	}
	return b.Units[len(a.Units)].Unit, "the second run"
}

// bisectUnit compares one unit's trails: the common epoch prefix, then
// any surplus epochs, then the final stream state.
func bisectUnit(ua, ub *UnitLedger) *Divergence {
	for e := 0; e < len(ua.Epochs) && e < len(ub.Epochs); e++ {
		ea, eb := &ua.Epochs[e], &ub.Epochs[e]
		if d := bisectStreams(ea.Streams, eb.Streams); d != nil {
			d.Unit = ua.Unit
			d.Epoch = ea.Index
			d.SimSeconds = ea.SimSeconds
			return d
		}
		if ea.SimSeconds != eb.SimSeconds {
			return &Divergence{
				Unit: ua.Unit, Epoch: ea.Index, SimSeconds: ea.SimSeconds,
				Detail: fmt.Sprintf("epoch %d sealed at different sim times: %.6fs vs %.6fs", ea.Index, ea.SimSeconds, eb.SimSeconds),
			}
		}
	}
	if len(ua.Epochs) != len(ub.Epochs) {
		e := min(len(ua.Epochs), len(ub.Epochs))
		side, from := "the first run", ua
		if len(ub.Epochs) > len(ua.Epochs) {
			side, from = "the second run", ub
		}
		return &Divergence{
			Unit: ua.Unit, Epoch: e, SimSeconds: from.Epochs[e].SimSeconds,
			Detail: fmt.Sprintf("epoch %d present only in %s (%d vs %d epochs)", e, side, len(ua.Epochs), len(ub.Epochs)),
		}
	}
	if d := bisectStreams(ua.Streams, ub.Streams); d != nil {
		d.Unit = ua.Unit
		d.Epoch = -1
		d.Detail = "final stream state diverges (no sealed epoch localizes it): " + d.Detail
		return d
	}
	return nil
}

// bisectStreams compares two stream lists in declaration order and
// returns the first mismatch (without unit/epoch context — the caller
// fills those in).
func bisectStreams(sa, sb []StreamFP) *Divergence {
	for j := 0; j < len(sa) && j < len(sb); j++ {
		fa, fb := &sa[j], &sb[j]
		if fa.Stream != fb.Stream {
			return &Divergence{
				Stream: fa.Stream,
				Detail: fmt.Sprintf("stream set diverges at position %d: %q vs %q", j, fa.Stream, fb.Stream),
			}
		}
		if fa.FP != fb.FP || fa.Count != fb.Count {
			return &Divergence{
				Stream: fa.Stream,
				FPA:    fa.FP, CountA: fa.Count,
				FPB: fb.FP, CountB: fb.Count,
				Detail: fmt.Sprintf("stream %s diverges: fp %s (count %d) vs %s (count %d)",
					fa.Stream, fa.FP, fa.Count, fb.FP, fb.Count),
			}
		}
	}
	if len(sa) != len(sb) {
		n := min(len(sa), len(sb))
		extra, side := sb, "the second run"
		if len(sa) > len(sb) {
			extra, side = sa, "the first run"
		}
		return &Divergence{
			Stream: extra[n].Stream,
			Detail: fmt.Sprintf("stream %q present only in %s", extra[n].Stream, side),
		}
	}
	return nil
}
