package ledger

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"hyperhammer/internal/simtime"
)

// driveRun replays a fixed fold schedule against a fresh recorder:
// three streams in a fixed declaration order, folding on a sim clock
// that crosses several epoch boundaries. extraAt injects one
// additional dram.rng fold before the given tick index (-1 for none) —
// the "single stray RNG draw" a bisection must localize.
func driveRun(epoch time.Duration, extraAt int) Snapshot {
	r := New(Config{Epoch: epoch})
	clock := &simtime.Clock{}
	r.BindClock(clock)
	rng := r.Stream("dram.rng")
	row := r.Stream("dram.row")
	flip := r.Stream("kvm.flip")
	for tick := 0; tick < 8; tick++ {
		if tick == extraAt {
			rng.Fold1(0xDEAD)
		}
		for i := 0; i < 5; i++ {
			rng.Fold1(uint64(tick*100 + i))
			row.Fold2(uint64(tick), uint64(i))
		}
		if tick%2 == 0 {
			flip.Fold3(uint64(tick), 7, 1)
		}
		clock.Advance(150 * time.Millisecond)
	}
	return r.Snapshot()
}

// TestIdenticalRunsIdenticalLedgers is the plane's base invariant:
// replaying the same fold schedule produces a byte-identical snapshot.
func TestIdenticalRunsIdenticalLedgers(t *testing.T) {
	a, _ := json.Marshal(driveRun(200*time.Millisecond, -1))
	b, _ := json.Marshal(driveRun(200*time.Millisecond, -1))
	if !bytes.Equal(a, b) {
		t.Fatalf("same schedule, different ledgers:\na: %s\nb: %s", a, b)
	}
	if d := Bisect(ptr(driveRun(200*time.Millisecond, -1)), ptr(driveRun(200*time.Millisecond, -1))); d != nil {
		t.Fatalf("Bisect on identical ledgers = %+v, want nil", d)
	}
}

// TestSingleDrawMovesOneStreamFromOneEpochOn: injecting one extra RNG
// draw perturbs exactly one stream's fingerprints, and only from the
// epoch containing the injection onward — the invariant hh-bisect's
// localization relies on.
func TestSingleDrawMovesOneStreamFromOneEpochOn(t *testing.T) {
	const injectTick = 4
	clean := driveRun(200*time.Millisecond, -1)
	drift := driveRun(200*time.Millisecond, injectTick)
	if len(clean.Units) != 1 || len(drift.Units) != 1 {
		t.Fatalf("units = %d vs %d, want 1 each", len(clean.Units), len(drift.Units))
	}
	uc, ud := clean.Units[0], drift.Units[0]
	if len(uc.Epochs) == 0 || len(uc.Epochs) != len(ud.Epochs) {
		t.Fatalf("epoch counts: %d vs %d", len(uc.Epochs), len(ud.Epochs))
	}
	// The injection lands before tick 4's folds; with a 200ms epoch on
	// 150ms ticks the divergent epoch is the first sealed at or after
	// sim-time 4*150ms. Every epoch before it must match exactly;
	// every epoch from it on must differ in dram.rng and nothing else.
	divergeFrom := -1
	for e := range uc.Epochs {
		sa, sb := uc.Epochs[e].Streams, ud.Epochs[e].Streams
		if len(sa) != len(sb) {
			t.Fatalf("epoch %d stream counts differ", e)
		}
		epochDiverged := false
		for j := range sa {
			same := sa[j] == sb[j]
			if sa[j].Stream == "dram.rng" {
				if !same {
					epochDiverged = true
				}
			} else if !same {
				t.Errorf("epoch %d: stream %s moved (%+v vs %+v), only dram.rng should", e, sa[j].Stream, sa[j], sb[j])
			}
		}
		if epochDiverged && divergeFrom == -1 {
			divergeFrom = e
		}
		if divergeFrom != -1 && !epochDiverged {
			t.Errorf("epoch %d: dram.rng re-converged after diverging at %d — rolling fps cannot", e, divergeFrom)
		}
	}
	if divergeFrom == -1 {
		t.Fatal("injected draw never showed up in any epoch")
	}

	d := Bisect(&clean, &drift)
	if d == nil {
		t.Fatal("Bisect missed the divergence")
	}
	if d.Stream != "dram.rng" || d.Epoch != divergeFrom {
		t.Errorf("Bisect = stream %q epoch %d, want dram.rng epoch %d (%s)", d.Stream, d.Epoch, divergeFrom, d.Detail)
	}
	if d.CountA+1 != d.CountB {
		t.Errorf("counts %d vs %d, want exactly one extra event on the drift side", d.CountA, d.CountB)
	}
}

// TestNilRecorderIsFree: the whole API chain no-ops on nil — the
// zero-cost-when-off contract the config threading relies on.
func TestNilRecorderIsFree(t *testing.T) {
	var r *Recorder
	r.BindClock(&simtime.Clock{})
	s := r.Stream("dram.rng")
	if s != nil {
		t.Fatal("nil recorder returned a live stream")
	}
	s.Fold1(1)
	s.Fold2(1, 2)
	s.Fold3(1, 2, 3)
	s.Fold4(1, 2, 3, 4)
	if r.Scoped() != nil {
		t.Fatal("nil.Scoped() != nil")
	}
	r.Absorb(New(Config{}), "u")
	(*Recorder)(nil).Absorb(nil, "u")
	snap := r.Snapshot()
	if snap.Units == nil || len(snap.Units) != 0 {
		t.Fatalf("nil snapshot units = %#v, want empty non-nil", snap.Units)
	}
	raw, _ := json.Marshal(snap)
	if strings.Contains(string(raw), "null") {
		t.Fatalf("nil snapshot marshals null: %s", raw)
	}
}

// TestScopedAbsorbDeclarationOrder: children absorbed in declaration
// order appear as unit trails in that order, regardless of fold
// timing — the parallel-determinism mechanism.
func TestScopedAbsorbDeclarationOrder(t *testing.T) {
	parent := New(Config{Epoch: time.Second})
	c1, c2 := parent.Scoped(), parent.Scoped()
	// Fold into c2 first: absorb order, not fold order, must decide.
	c2.Stream("dram.rng").Fold1(2)
	c1.Stream("dram.rng").Fold1(1)
	parent.Absorb(c1, "unit-a")
	parent.Absorb(c2, "unit-b")
	snap := parent.Snapshot()
	if len(snap.Units) != 2 || snap.Units[0].Unit != "unit-a" || snap.Units[1].Unit != "unit-b" {
		t.Fatalf("units = %+v, want unit-a then unit-b", snap.Units)
	}
	if snap.Units[0].Streams[0].Count != 1 || snap.Units[1].Streams[0].Count != 1 {
		t.Fatalf("stream counts wrong: %+v", snap.Units)
	}
	if snap.EpochSimSeconds != 1 {
		t.Fatalf("EpochSimSeconds = %v, want 1", snap.EpochSimSeconds)
	}
}

// TestSealSkipsQuietBoundaries: boundaries with no new folds seal
// nothing, and the epoch bound truncates with an exact count.
func TestSealSkipsQuietBoundaries(t *testing.T) {
	r := New(Config{Epoch: time.Second})
	clock := &simtime.Clock{}
	r.BindClock(clock)
	s := r.Stream("x")
	clock.Advance(5 * time.Second) // quiet: nothing sealed
	s.Fold1(1)
	clock.Advance(time.Second) // epoch 0
	clock.Advance(time.Second) // quiet again
	s.Fold1(2)
	clock.Advance(time.Second) // epoch 1
	u := r.Snapshot().Units[0]
	if len(u.Epochs) != 2 {
		t.Fatalf("epochs = %d, want 2 (quiet boundaries must not seal)", len(u.Epochs))
	}
	if u.Epochs[0].Index != 0 || u.Epochs[1].Index != 1 {
		t.Fatalf("epoch indices = %d,%d", u.Epochs[0].Index, u.Epochs[1].Index)
	}
	for i := 2; i <= maxEpochs; i++ {
		s.Fold1(uint64(i + 1))
		clock.Advance(time.Second) // epochs 2..maxEpochs-1, then truncated
	}
	u = r.Snapshot().Units[0]
	if len(u.Epochs) != maxEpochs {
		t.Fatalf("epochs = %d, want the bound %d", len(u.Epochs), maxEpochs)
	}
	if u.EpochsTruncated != 1 {
		t.Fatalf("EpochsTruncated = %d, want 1", u.EpochsTruncated)
	}
	if u.Streams[0].Count != maxEpochs+1 {
		t.Fatalf("final count = %d, want %d", u.Streams[0].Count, maxEpochs+1)
	}
}

// TestBisectStructural covers the structural divergence cases: unit
// sequence, stream set, and epoch count mismatches.
func TestBisectStructural(t *testing.T) {
	mk := func(units ...string) *Snapshot {
		s := &Snapshot{Version: Version, Units: []UnitLedger{}}
		for _, u := range units {
			s.Units = append(s.Units, UnitLedger{Unit: u, Epochs: []EpochRecord{}, Streams: []StreamFP{}})
		}
		return s
	}
	if d := Bisect(mk("a", "b"), mk("a", "c")); d == nil || !strings.Contains(d.Detail, "unit sequence") {
		t.Errorf("unit mismatch: %+v", d)
	}
	if d := Bisect(mk("a"), mk("a", "b")); d == nil || !strings.Contains(d.Detail, "present only in the second run") {
		t.Errorf("unit count mismatch: %+v", d)
	}
	a, b := mk("u"), mk("u")
	a.Units[0].Streams = []StreamFP{{Stream: "x", FP: "00", Count: 1}}
	b.Units[0].Streams = []StreamFP{{Stream: "y", FP: "00", Count: 1}}
	if d := Bisect(a, b); d == nil || !strings.Contains(d.Detail, "stream set") {
		t.Errorf("stream set mismatch: %+v", d)
	}
	a, b = mk("u"), mk("u")
	a.Units[0].Epochs = []EpochRecord{{Index: 0, SimSeconds: 1, Streams: []StreamFP{}}}
	if d := Bisect(a, b); d == nil || !strings.Contains(d.Detail, "epoch 0 present only in the first run") {
		t.Errorf("epoch count mismatch: %+v", d)
	}
	if d := Bisect(nil, mk()); d == nil {
		t.Error("nil vs non-nil must diverge")
	}
	if d := Bisect(nil, nil); d != nil {
		t.Errorf("nil vs nil = %+v", d)
	}
}

// TestHashString: stability and distinctness of the string reducer.
func TestHashString(t *testing.T) {
	if HashString("escaped") == HashString("steer-miss") {
		t.Error("distinct outcomes collide")
	}
	if HashString("") != fnvOffset {
		t.Error("empty string must hash to the offset basis")
	}
}

func ptr(s Snapshot) *Snapshot { return &s }

// FuzzBisect: on any two decodable snapshots Bisect never panics, a
// ledger never diverges from itself, and whether two ledgers diverge
// does not depend on argument order.
func FuzzBisect(f *testing.F) {
	enc := func(s Snapshot) []byte {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	clean, drift := enc(driveRun(time.Second, -1)), enc(driveRun(time.Second, 3))
	f.Add(clean, clean)
	f.Add(clean, drift)
	f.Add(clean, enc(driveRun(0, -1)))
	f.Add([]byte("null"), clean)
	// The first run carries a final stream the second lacks.
	f.Add([]byte(`{"units":[{"unit":"a","streams":[{"stream":"x"}]}]}`), []byte(`{"units":[{"unit":"a"}]}`))
	f.Add([]byte(`{"units":[{"unit":"a","epochs":[{"index":0,"streams":[]}]}]}`),
		[]byte(`{"units":[{"unit":"a","epochs":[],"streams":[{"stream":"x"}]},{"unit":"b"}]}`))
	f.Fuzz(func(t *testing.T, ja, jb []byte) {
		var a, b *Snapshot
		if json.Unmarshal(ja, &a) != nil || json.Unmarshal(jb, &b) != nil {
			return
		}
		if d := Bisect(a, a); d != nil {
			t.Fatalf("a ledger diverges from itself: %+v", d)
		}
		ab, ba := Bisect(a, b), Bisect(b, a)
		if (ab == nil) != (ba == nil) {
			t.Fatalf("Bisect(a, b) = %+v but Bisect(b, a) = %+v", ab, ba)
		}
	})
}
