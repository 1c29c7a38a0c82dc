// Package ledger is the determinism plane: where metrics count what
// happened and forensics explains why, this package proves *that two
// runs did the same thing* — and, when they did not, localizes the
// first divergence to a sim-time epoch, a subsystem, and a stream.
//
// Every deterministic event source in the simulation (RNG draws, DRAM
// row-state and flip emissions, EPT mutations, buddy allocator events,
// guest mapping changes, attack attempt outcomes) folds its values
// into a named Stream's rolling FNV-1a fingerprint. A clock tick at a
// configurable sim-time interval seals the current fingerprints into
// an epoch record, so the ledger is a time-indexed trail: two runs
// whose ledgers agree through epoch N and disagree at epoch N+1
// diverged somewhere in that interval, in exactly the streams whose
// fingerprints split. hh bisect walks two ledgers and reports that
// point; hh diff gates the whole section at zero tolerance.
//
// Like the other planes, every method is safe on a nil receiver (so
// config threading never guards), recorders scope per plan unit via
// Scoped/Absorb with declaration-order folding (snapshots are
// byte-identical at any -parallel setting), and the zero-perturbation
// contract holds: hooks only observe values the simulation already
// produced — they consume no RNG draws and never advance the clock, so
// enabling the ledger cannot change a single figure.
package ledger

import (
	"fmt"
	"sync"
	"time"

	"hyperhammer/internal/simtime"
)

// Version is the ledger snapshot schema version.
const Version = 1

// FNV-1a parameters (64-bit), folded word-at-a-time: the fingerprints
// are internal drift detectors, not interoperable FNV digests, so the
// wider mixing unit is fine and an order of magnitude cheaper than
// byte-at-a-time on the hot emission path.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// Config tunes a Recorder. The zero value records final stream
// fingerprints only; set Epoch to get the time-indexed trail.
type Config struct {
	// Epoch is the sim-time sealing interval: each time a bound clock
	// crosses a multiple of it, the current stream fingerprints are
	// sealed into an epoch record. Zero disables sealing — streams
	// still accumulate, but only their final values appear in
	// snapshots, which localizes divergence to a stream but not a
	// time.
	Epoch time.Duration
}

// maxEpochs bounds the sealed epoch records per unit. Sealing keeps
// counting past the bound; EpochsTruncated reports how many seals were
// dropped.
const maxEpochs = 4096

// StreamFP is one stream's rolling fingerprint state: the FNV-1a hash
// of every word folded so far (16 hex digits, lossless — the float64
// diff machinery gets a 52-bit projection instead, see diff.go in
// runartifact) and the number of events folded.
type StreamFP struct {
	Stream string `json:"stream"`
	FP     string `json:"fp"`
	Count  uint64 `json:"count"`
}

// EpochRecord is the sealed state of every stream at one sim-time
// boundary. Streams appear in declaration order — the order the
// subsystems first resolved them — which is fixed by the wiring code,
// not by timing, so records compare byte-for-byte across runs.
type EpochRecord struct {
	Index      int        `json:"index"`
	SimSeconds float64    `json:"simSeconds"`
	Streams    []StreamFP `json:"streams"`
}

// UnitLedger is one plan unit's (or the live recorder's own) complete
// trail: the sealed epochs and the final stream state.
type UnitLedger struct {
	// Unit tags the plan unit ("" for the live recorder's own trail).
	Unit   string        `json:"unit,omitempty"`
	Epochs []EpochRecord `json:"epochs"`
	// Streams is the final fingerprint state, present even when epoch
	// sealing is off.
	Streams []StreamFP `json:"streams"`
	// EpochsTruncated counts seals dropped past the per-unit bound.
	EpochsTruncated int `json:"epochsTruncated,omitempty"`
}

// Snapshot is the serialized ledger: plan-unit trails in declaration
// order, then the live recorder's own.
type Snapshot struct {
	Version int `json:"version"`
	// EpochSimSeconds is the configured sealing interval in simulated
	// seconds (0 = sealing off).
	EpochSimSeconds float64      `json:"epochSimSeconds"`
	Units           []UnitLedger `json:"units"`
}

// Stream is a fold handle for one named event source. Subsystems
// resolve handles once at wiring time (Recorder.Stream) and call the
// FoldN methods on the emission path; a nil handle (ledger off)
// no-ops, which is the entire cost of the plane when disabled.
type Stream struct {
	r     *Recorder
	name  string
	fp    uint64
	count uint64
}

// Recorder accumulates fingerprint streams for one telemetry scope: a
// whole CLI run, or one scheduled plan unit (see Scoped/Absorb). All
// methods are safe for concurrent use and no-ops on a nil receiver.
type Recorder struct {
	cfg Config

	mu    sync.Mutex
	clock *simtime.Clock

	// streams holds fold handles in declaration order; byName makes
	// Stream idempotent per name.
	streams []*Stream
	byName  map[string]*Stream

	// absorbed holds unit trails folded in declaration order.
	absorbed []UnitLedger

	epochs    []EpochRecord
	truncated int

	// folds counts every fold event; seal skips boundaries where it
	// has not moved, so idle stretches cost no epoch records.
	folds       uint64
	sealedFolds uint64
}

// New creates a Recorder.
func New(cfg Config) *Recorder {
	return &Recorder{cfg: cfg, byName: make(map[string]*Stream)}
}

// Scoped returns a fresh Recorder with the same configuration, for one
// scheduled plan unit; fold it back with Absorb. Nil-safe.
func (r *Recorder) Scoped() *Recorder {
	if r == nil {
		return nil
	}
	return New(r.cfg)
}

// BindClock points the recorder at a host's simulated clock and, when
// an epoch interval is configured, arms the sealing tick on it.
// kvm.NewHost calls this at boot; a recorder serving several
// sequential hosts seals against each host's clock in turn, appending
// to one trail.
func (r *Recorder) BindClock(c *simtime.Clock) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	r.clock = c
	r.mu.Unlock()
	if r.cfg.Epoch > 0 {
		c.OnTick(r.cfg.Epoch, r.seal)
	}
}

// seal captures every stream's fingerprint into an epoch record. Runs
// on the simulating goroutine inside Clock.Advance; boundaries where
// no stream moved are skipped so quiet stretches stay free.
func (r *Recorder) seal(now time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.folds == r.sealedFolds {
		return
	}
	r.sealedFolds = r.folds
	if len(r.epochs) >= maxEpochs {
		r.truncated++
		return
	}
	r.epochs = append(r.epochs, EpochRecord{
		Index:      len(r.epochs),
		SimSeconds: now.Seconds(),
		Streams:    r.streamFPsLocked(),
	})
}

// Stream resolves the fold handle for a named event source, creating
// it on first use. Handles registered on a nil recorder are nil, and
// nil handles fold to nothing — subsystems thread them unguarded.
// Declaration order (first resolution) is the order streams appear in
// every epoch record, so wiring code must resolve streams
// deterministically (it does: handle resolution happens in setters,
// not on event paths).
func (r *Recorder) Stream(name string) *Stream {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.byName[name]; ok {
		return s
	}
	s := &Stream{r: r, name: name, fp: fnvOffset}
	r.byName[name] = s
	r.streams = append(r.streams, s)
	return s
}

// Fold1 folds one event of one word into the stream. Nil-safe,
// allocation-free.
func (s *Stream) Fold1(a uint64) {
	if s == nil {
		return
	}
	s.r.mu.Lock()
	s.fp = (s.fp ^ a) * fnvPrime
	s.count++
	s.r.folds++
	s.r.mu.Unlock()
}

// Fold2 folds one event of two words.
func (s *Stream) Fold2(a, b uint64) {
	if s == nil {
		return
	}
	s.r.mu.Lock()
	s.fp = (s.fp ^ a) * fnvPrime
	s.fp = (s.fp ^ b) * fnvPrime
	s.count++
	s.r.folds++
	s.r.mu.Unlock()
}

// Fold3 folds one event of three words.
func (s *Stream) Fold3(a, b, c uint64) {
	if s == nil {
		return
	}
	s.r.mu.Lock()
	s.fp = (s.fp ^ a) * fnvPrime
	s.fp = (s.fp ^ b) * fnvPrime
	s.fp = (s.fp ^ c) * fnvPrime
	s.count++
	s.r.folds++
	s.r.mu.Unlock()
}

// Fold4 folds one event of four words.
func (s *Stream) Fold4(a, b, c, d uint64) {
	if s == nil {
		return
	}
	s.r.mu.Lock()
	s.fp = (s.fp ^ a) * fnvPrime
	s.fp = (s.fp ^ b) * fnvPrime
	s.fp = (s.fp ^ c) * fnvPrime
	s.fp = (s.fp ^ d) * fnvPrime
	s.count++
	s.r.folds++
	s.r.mu.Unlock()
}

// HashString reduces a string to one foldable word with the same
// FNV-1a construction (byte-at-a-time — strings are rare, cold
// values like attempt outcomes).
func HashString(v string) uint64 {
	fp := fnvOffset
	for i := 0; i < len(v); i++ {
		fp = (fp ^ uint64(v[i])) * fnvPrime
	}
	return fp
}

// streamFPsLocked serializes the current stream states in declaration
// order. Always non-nil.
func (r *Recorder) streamFPsLocked() []StreamFP {
	out := make([]StreamFP, 0, len(r.streams))
	for _, s := range r.streams {
		out = append(out, StreamFP{Stream: s.name, FP: fmt.Sprintf("%016x", s.fp), Count: s.count})
	}
	return out
}

// liveUnitLocked builds the recorder's own trail, or nil when it has
// recorded nothing (a plan-driving parent whose hooks all went to
// scoped children).
func (r *Recorder) liveUnitLocked() *UnitLedger {
	if len(r.streams) == 0 && len(r.epochs) == 0 {
		return nil
	}
	u := UnitLedger{
		Epochs:          append([]EpochRecord{}, r.epochs...),
		Streams:         r.streamFPsLocked(),
		EpochsTruncated: r.truncated,
	}
	return &u
}

// Absorb folds a completed scoped Recorder into this one as a unit
// trail tagged with the plan unit's name. The parallel experiment
// engine calls this at delivery, in declaration order, which is what
// keeps snapshots byte-identical at any -parallel setting. Nil-safe on
// both sides.
func (r *Recorder) Absorb(child *Recorder, unit string) {
	if r == nil || child == nil {
		return
	}
	child.mu.Lock()
	units := append([]UnitLedger{}, child.absorbed...)
	if live := child.liveUnitLocked(); live != nil {
		units = append(units, *live)
	}
	child.mu.Unlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	for _, u := range units {
		if u.Unit == "" {
			u.Unit = unit
		}
		r.absorbed = append(r.absorbed, u)
	}
}

// Snapshot serializes the plane: absorbed unit trails in declaration
// order, then the live recorder's own. Nil-safe (empty snapshot,
// lists never null).
func (r *Recorder) Snapshot() Snapshot {
	s := Snapshot{Version: Version, Units: []UnitLedger{}}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.EpochSimSeconds = r.cfg.Epoch.Seconds()
	s.Units = append(s.Units, r.absorbed...)
	if live := r.liveUnitLocked(); live != nil {
		s.Units = append(s.Units, *live)
	}
	return s
}
