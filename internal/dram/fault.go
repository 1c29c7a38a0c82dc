package dram

import (
	"math/rand/v2"

	"hyperhammer/internal/ledger"
	"hyperhammer/internal/memdef"
	"hyperhammer/internal/metrics"
)

// FlipDirection is the fixed direction of a vulnerable cell. DRAM
// cells are either true-cells (a charged cell encodes 1, so leakage
// flips 1 to 0) or anti-cells (leakage flips 0 to 1); each physical
// cell flips in only one direction (Section 4.3, "Rowhammer flips
// tend to be unidirectional").
type FlipDirection uint8

const (
	// FlipOneToZero marks a true-cell: the bit flips only if it
	// currently holds 1.
	FlipOneToZero FlipDirection = iota
	// FlipZeroToOne marks an anti-cell: the bit flips only if it
	// currently holds 0.
	FlipZeroToOne
)

// String returns the paper's notation for the direction.
func (d FlipDirection) String() string {
	if d == FlipOneToZero {
		return "1->0"
	}
	return "0->1"
}

// Cell is one Rowhammer-vulnerable DRAM cell.
type Cell struct {
	// BitIndex is the cell's bit position within its row's per-bank
	// slice (0 .. RowBytesPerBank*8-1).
	BitIndex int
	// Threshold is the effective activation count on adjacent rows
	// required to flip the cell within one refresh window.
	Threshold float64
	// Direction is the cell's fixed flip direction.
	Direction FlipDirection
	// Stable reports whether the cell flips every time the threshold
	// is exceeded. Unstable cells flip probabilistically (FlakyP).
	Stable bool
	// FlakyP is the per-hammer flip probability for unstable cells.
	FlakyP float64
}

// FaultModelConfig parameterizes the vulnerable-cell population of one
// DIMM pair. Two presets reproduce the character of the paper's S1
// and S2 machines (Table 1): S1 finds fewer flips but most are stable,
// S2 finds more flips but almost none are stable.
type FaultModelConfig struct {
	// Seed makes the cell population deterministic.
	Seed uint64
	// CellsPerRow is the expected number of vulnerable cells per
	// (bank, row). Sampled per row from a Poisson-like distribution.
	CellsPerRow float64
	// ThresholdMin and ThresholdMax bound the per-cell activation
	// thresholds (uniform sample).
	ThresholdMin, ThresholdMax float64
	// StableFraction is the probability that a vulnerable cell is
	// stable (flips reliably above threshold).
	StableFraction float64
	// FlakyP is the flip probability of unstable cells.
	FlakyP float64
	// NeighborWeight1 and NeighborWeight2 weight the disturbance
	// contributed by aggressors at row distance 1 and 2. Distances
	// beyond 2 contribute nothing (blast radius 2).
	NeighborWeight1, NeighborWeight2 float64
	// TRR, when non-nil, enables the in-DRAM Target Row Refresh
	// mitigation model. The evaluated Apacer DIMMs behave as if TRR
	// were absent or defeated (TRRespass found effective patterns on
	// them, Section 5.1), so the presets leave this nil.
	TRR *TRRConfig
}

// S1FaultModel returns the fault-model preset calibrated to machine
// S1 in Table 1: ~395 flips over a 12 GiB profile with ~62% stable.
func S1FaultModel(seed uint64) FaultModelConfig {
	return FaultModelConfig{
		Seed:            seed,
		CellsPerRow:     0.0043,
		ThresholdMin:    120_000,
		ThresholdMax:    400_000,
		StableFraction:  0.37,
		FlakyP:          0.35,
		NeighborWeight1: 1.0,
		NeighborWeight2: 0.25,
	}
}

// S2FaultModel returns the preset calibrated to machine S2 in
// Table 1: ~650 flips over a 12 GiB profile with only ~6% stable.
func S2FaultModel(seed uint64) FaultModelConfig {
	return FaultModelConfig{
		Seed:            seed,
		CellsPerRow:     0.0122,
		ThresholdMin:    120_000,
		ThresholdMax:    400_000,
		StableFraction:  0.022,
		FlakyP:          0.35,
		NeighborWeight1: 1.0,
		NeighborWeight2: 0.25,
	}
}

// Module is one installed DRAM configuration: a geometry plus its
// vulnerable-cell population. Cell populations are generated lazily
// and deterministically per (bank, row), so a 16 GiB module costs
// nothing until rows are actually hammered.
//
// Row state is organized per bank (bankState): the population cache,
// the reusable struct-of-arrays disturbance scratch, and the batch
// pipeline's verdict buffers are all bank-local (see batch.go).
type Module struct {
	Geo *Geometry
	cfg FaultModelConfig

	// banks holds the per-bank row state, indexed by bank number and
	// lazily populated. The slice itself is sized on first use.
	banks []bankState

	// ops counts hammer operations. It salts the per-op randomness so
	// that repeating an identical operation (a stability retest)
	// draws fresh flaky-cell outcomes instead of replaying the last
	// ones, while the sequence as a whole stays deterministic.
	ops uint64

	// sink, when non-nil, receives per-row activation accumulation
	// from every hammer operation (the introspection heatmap feed).
	sink ActivationSink

	// flip, when non-nil, receives per-flip verdict provenance (the
	// forensics-plane feed).
	flip FlipSink

	met moduleMetrics

	// led* are the determinism-ledger fold handles (nil when the
	// ledger is off — nil handles fold to nothing; see SetLedger).
	ledRNG  *ledger.Stream
	ledRow  *ledger.Stream
	ledFlip *ledger.Stream

	// opPCG/opRand are the reusable per-op RNG: reseeding a PCG in
	// place draws the identical stream a freshly allocated
	// rand.New(rand.NewPCG(...)) would, without the two allocations.
	opPCG  rand.PCG
	opRand *rand.Rand

	// trr and trrPCG/trrRand are the TRR filter's reusable scratch
	// and sampling RNG (see trr.go).
	trr     trrScratch
	trrPCG  rand.PCG
	trrRand *rand.Rand

	bat batchScratch

	// deliverSelf/deliverConcat/lastFlips adapt the slice-returning
	// Hammer and HammerBatch APIs onto the callback pipeline without
	// a per-call closure allocation.
	deliverSelf   func(int, []CandidateFlip) error
	deliverConcat func(int, []CandidateFlip) error
	lastFlips     []CandidateFlip
}

// bankState is the per-bank slice of the module's row state. Each
// hammer operation touches a handful of rows per bank, so the
// disturbance scratch is a tiny struct-of-arrays (parallel row and
// pressure slices) reused across operations, not a full-row vector.
type bankState struct {
	// Vulnerable-cell population cache. checked marks rows whose
	// population has been generated (so the empty majority never
	// re-runs its row RNG); hasCells marks the generated rows that
	// actually hold cells; cells stores those populations.
	checked  []uint64
	hasCells []uint64
	cells    map[int][]Cell
	// pcg/rng are the bank's reusable row-population RNG, reseeded
	// per row; identical streams to a fresh rand.New(rand.NewPCG()).
	pcg rand.PCG
	rng *rand.Rand

	// Main disturbance scratch for the current op: vRows[i] carries
	// vPres[i] accumulated pressure. Reset per (op, bank).
	vRows []int32
	vPres []float64
	// Audit (pre-TRR) disturbance scratch, same shape.
	aRows []int32
	aPres []float64

	// Batch pipeline state: the ops (by batch index, ascending) with
	// work in this bank, and the phase-B verdict records they
	// produced — main candidates and trr-refreshed audit hits, each
	// consumed by an emission cursor in phase C. epoch stamps which
	// batch the buffers belong to, so joining a new batch resets them
	// without a per-bank sweep.
	epoch      uint64
	opIdx      []int32
	recs       []cellRecord
	arecs      []cellRecord
	mCur, aCur int
}

// ActivationSink accumulates per-row activation pressure from hammer
// operations. Implementations must be cheap: the hook runs on the
// hammer hot path, once per active aggressor row per operation.
type ActivationSink interface {
	// RecordRowActivations reports that (bank, row) was activated
	// n more times within one refresh window.
	RecordRowActivations(bank, row int, n int64)
}

// SetActivationSink installs (or, with nil, removes) the module's
// activation sink.
func (m *Module) SetActivationSink(s ActivationSink) { m.sink = s }

// Dram-stage flip verdicts reported through the FlipSink. The host
// stage (kvm) refines "fired" candidates into their final verdicts
// (landed, direction-filtered, ECC outcomes).
const (
	// FlipFired marks a candidate flip the fault model emitted.
	FlipFired = "fired"
	// FlipFlakyNoFire marks an unstable cell that was pushed past its
	// threshold but did not fire this operation.
	FlipFlakyNoFire = "flaky-no-fire"
	// FlipTRRRefreshed marks a cell whose pre-TRR disturbance reached
	// its threshold but whose aggressors the TRR tracker neutralized.
	FlipTRRRefreshed = "trr-refreshed"
)

// FlipOpInfo describes one hammer operation to the flip sink: the
// active aggressor set (post-dedup, post-bank-filter), the rows the
// TRR tracker neutralized, and the requested vs refresh-window-clipped
// per-aggressor activation counts. The slices are borrowed from the
// module's scratch and valid only for the duration of the call.
type FlipOpInfo struct {
	Aggressors  []RowRef
	Neutralized []RowRef
	// Rounds is the requested activations per aggressor;
	// WindowRounds is the count after refresh-window clipping.
	Rounds       int
	WindowRounds int
}

// FlipEvent is one per-cell verdict from the fault model. For
// trr-refreshed events Disturbance is the pre-TRR disturbance that
// would have fired the cell; otherwise it is the effective (post-TRR,
// window-clipped) disturbance.
type FlipEvent struct {
	Addr        memdef.HPA
	Bit         uint
	Direction   FlipDirection
	Row         RowRef
	Disturbance float64
	Threshold   float64
	Verdict     string
}

// FlipSink receives the flip-provenance stream from hammer operations
// (the forensics-plane feed, alongside ActivationSink's heatmap feed).
// Implementations must be cheap and must not feed back into simulated
// state; nil disables the stream at zero cost.
type FlipSink interface {
	// BeginHammerOp opens one hammer operation; the flip events that
	// follow belong to it.
	BeginHammerOp(info FlipOpInfo)
	// RecordFlipEvent reports one per-cell verdict.
	RecordFlipEvent(ev FlipEvent)
}

// SetFlipSink installs (or, with nil, removes) the module's flip sink.
func (m *Module) SetFlipSink(s FlipSink) { m.flip = s }

// SetLedger resolves the module's determinism-ledger streams: the
// flaky-cell RNG draws (dram.rng), per-op row activation state
// (dram.row), and flip-verdict emissions (dram.flip). A nil recorder
// resolves nil handles, which fold to nothing — the zero-cost-off
// path. Folds happen only on the merge-ordered phase-C path.
func (m *Module) SetLedger(r *ledger.Recorder) {
	m.ledRNG = r.Stream("dram.rng")
	m.ledRow = r.Stream("dram.row")
	m.ledFlip = r.Stream("dram.flip")
}

// moduleMetrics caches the module's instrument handles. All handles
// are nil (no-op) until SetMetrics.
type moduleMetrics struct {
	hammerOps      *metrics.Counter
	activations    *metrics.Counter
	trrNeutralized *metrics.Counter
	windowClips    *metrics.Counter
	candFlips      *metrics.Counter
	trrRefreshes   *metrics.Counter
	trrVetoed      *metrics.Counter
}

// VetoedFlipsHelp is the shared help text of the cross-mitigation
// mitigation_vetoed_flips_total family (the kvm layer registers the
// ECC series of the same family).
const VetoedFlipsHelp = "Would-be bit flips vetoed by a hardware mitigation before software observed them."

// SetMetrics registers the module's instruments with reg. A nil
// registry leaves the module uninstrumented at zero cost.
func (m *Module) SetMetrics(reg *metrics.Registry) {
	m.met = moduleMetrics{
		hammerOps:      reg.Counter("dram_hammer_ops_total", "Hammer operations evaluated by the fault model."),
		activations:    reg.Counter("dram_activations_total", "DRAM row activations driven by hammer operations."),
		trrNeutralized: reg.Counter("dram_trr_neutralized_total", "Aggressor rows neutralized by the TRR tracker."),
		windowClips:    reg.Counter("dram_refresh_window_clips_total", "Hammer ops whose rounds were clipped to the refresh-window activation budget."),
		candFlips:      reg.Counter("dram_candidate_flips_total", "Candidate bit flips emitted by the fault model (before direction filtering)."),
		trrRefreshes:   reg.Counter("mitigation_trr_refreshes_total", "Preventive neighbour refreshes issued by the TRR tracker (one per neutralized aggressor row)."),
		trrVetoed:      reg.Counter("mitigation_vetoed_flips_total", VetoedFlipsHelp, "mitigation", "trr"),
	}
}

// NewModule installs a DRAM module with the given geometry and fault
// model.
func NewModule(geo *Geometry, cfg FaultModelConfig) *Module {
	return &Module{Geo: geo, cfg: cfg}
}

// bank returns bank b's state, sizing the bank table on first use.
func (m *Module) bank(b int) *bankState {
	if m.banks == nil {
		m.banks = make([]bankState, m.Geo.Banks())
	}
	return &m.banks[b]
}

// VulnerableCells returns the vulnerable cells of one (bank, row),
// generating them deterministically on demand. Generated rows are
// remembered in a per-bank bitset — the empty majority as a single
// bit, so a long profiling run neither re-derives their RNG nor
// bloats a cache with them. The returned slice must not be modified.
func (m *Module) VulnerableCells(bank, row int) []Cell {
	return m.cellsForRow(m.bank(bank), bank, row)
}

// cellsForRow is VulnerableCells against an already-resolved bank
// state. It touches only that bank's state (plus the immutable config
// and geometry), which is what makes concurrent per-bank evaluation
// in the batch pipeline race-free.
func (m *Module) cellsForRow(bs *bankState, bank, row int) []Cell {
	if bs.checked == nil {
		words := (m.Geo.Rows() + 63) / 64
		bs.checked = make([]uint64, words)
		bs.hasCells = make([]uint64, words)
		bs.rng = rand.New(&bs.pcg)
	}
	w, bit := row>>6, uint(row&63)
	if bs.checked[w]&(1<<bit) != 0 {
		if bs.hasCells[w]&(1<<bit) == 0 {
			return nil
		}
		return bs.cells[row]
	}
	bs.checked[w] |= 1 << bit
	// SplitMix-style key mixing keeps rows statistically independent
	// of each other and of visit order.
	k := m.cfg.Seed ^ (uint64(bank)+1)*0x9E3779B97F4A7C15 ^ (uint64(row)+1)*0xBF58476D1CE4E5B9
	bs.pcg.Seed(k, k^0x94D049BB133111EB)
	rng := bs.rng
	// Poisson sampling via inversion is overkill at these densities;
	// a two-draw Bernoulli mixture gives the same first two moments
	// for lambda << 1 while staying cheap and deterministic.
	n := 0
	lambda := m.cfg.CellsPerRow
	for lambda > 0 {
		p := lambda
		if p > 1 {
			p = 1
		}
		if rng.Float64() < p {
			n++
		}
		lambda -= 1
	}
	if n == 0 {
		return nil
	}
	rowBits := int(m.Geo.RowBytesPerBank()) * 8
	cells := make([]Cell, 0, n)
	for i := 0; i < n; i++ {
		c := Cell{
			BitIndex:  rng.IntN(rowBits),
			Threshold: m.cfg.ThresholdMin + rng.Float64()*(m.cfg.ThresholdMax-m.cfg.ThresholdMin),
			Stable:    rng.Float64() < m.cfg.StableFraction,
			FlakyP:    m.cfg.FlakyP,
		}
		if rng.Float64() < 0.5 {
			c.Direction = FlipOneToZero
		} else {
			c.Direction = FlipZeroToOne
		}
		cells = append(cells, c)
	}
	// Insertion sort by BitIndex: populations are tiny (at most
	// ceil(CellsPerRow) cells), where this is exactly the comparison
	// sequence sort.Slice would run.
	for i := 1; i < len(cells); i++ {
		for j := i; j > 0 && cells[j].BitIndex < cells[j-1].BitIndex; j-- {
			cells[j], cells[j-1] = cells[j-1], cells[j]
		}
	}
	bs.hasCells[w] |= 1 << bit
	if bs.cells == nil {
		bs.cells = make(map[int][]Cell)
	}
	bs.cells[row] = cells
	return cells
}

// windowActivations caps the activations of one row that can
// accumulate disturbance within a refresh window: every tREFW (64 ms)
// the victim row is refreshed and the charge-leak budget resets, so
// hammering longer in one operation does not hammer harder. It is the
// per-row budget of one window at back-to-back tRC (~47 ns) on
// DDR4-2666.
const windowActivations = 1_360_000

// RowRef names one DRAM row.
type RowRef struct {
	Bank, Row int
}

// CandidateFlip is a bit that the fault model reports as flipped by a
// hammer operation. Whether the flip is observable depends on the
// current content of the bit (direction filter), which the physical
// memory layer applies.
type CandidateFlip struct {
	// Addr is the physical address of the byte containing the cell.
	Addr memdef.HPA
	// Bit is the bit index within that byte (0..7).
	Bit uint
	// Direction is the only direction in which the cell flips.
	Direction FlipDirection
	// Row locates the victim cell for diagnostics.
	Row RowRef
}

// AddrOfCell converts a (bank, row, bitIndex) fault coordinate to a
// physical byte address and bit position, using the geometry's exact
// bank-function inverse.
func (m *Module) AddrOfCell(bank, row, bitIndex int) (memdef.HPA, uint) {
	byteInBankRow := bitIndex / 8
	line := byteInBankRow / LineSize
	byteInLine := byteInBankRow % LineSize
	a := m.Geo.ComposeLine(bank, row, line)
	return a + memdef.HPA(byteInLine), uint(bitIndex % 8)
}

// HammerOp describes one hammer operation: a set of aggressor rows
// each activated Rounds times within refresh windows. The operation
// models the paper's pattern of hammering two same-bank rows for
// 250,000 rounds. The Aggressors slice is only read during the
// Hammer/HammerBatch call, so callers may reuse its backing.
type HammerOp struct {
	Aggressors []RowRef
	Rounds     int
}

// neighborOffsets is the blast radius of one aggressor: row distances
// whose disturbance weight is nonzero, in accumulation order.
var neighborOffsets = [4]int{-2, -1, 1, 2}

// addPressure accumulates one aggressor's neighbour disturbance into
// a bank's (rows, pressure) struct-of-arrays scratch. c1/c2 are the
// distance-1/distance-2 contributions (weight × rounds); the float
// additions happen in exactly the aggressor-then-offset order of the
// sequential evaluation, so sums are bit-identical.
func addPressure(rowsp *[]int32, presp *[]float64, aggRow, maxRow int, c1, c2 float64) {
	rows, pres := *rowsp, *presp
	for _, d := range neighborOffsets {
		v := aggRow + d
		if v < 0 || v >= maxRow {
			continue
		}
		c := c1
		if d == 2 || d == -2 {
			c = c2
		}
		found := false
		for i, r := range rows {
			if int(r) == v {
				pres[i] += c
				found = true
				break
			}
		}
		if !found {
			rows = append(rows, int32(v))
			pres = append(pres, c)
		}
	}
	*rowsp, *presp = rows, pres
}

// sortRowsPres insertion-sorts the parallel (rows, pressure) arrays by
// row ascending. Rows are unique, so the order equals the sequential
// path's sorted victim iteration.
func sortRowsPres(rows []int32, pres []float64) {
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && rows[j] < rows[j-1]; j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
			pres[j], pres[j-1] = pres[j-1], pres[j]
		}
	}
}

// newOpRand wraps the module's reusable PCG source: reseeding it in
// place per op draws the identical stream a freshly allocated
// rand.New(rand.NewPCG(...)) would, without the two allocations.
func newOpRand(p *rand.PCG) *rand.Rand { return rand.New(p) }

// sortBanks insertion-sorts a bank list ascending.
func sortBanks(banks []int32) {
	for i := 1; i < len(banks); i++ {
		for j := i; j > 0 && banks[j] < banks[j-1]; j-- {
			banks[j], banks[j-1] = banks[j-1], banks[j]
		}
	}
}

// hasBank reports membership in a (tiny) bank list.
func hasBank(banks []int32, b int32) bool {
	for _, x := range banks {
		if x == b {
			return true
		}
	}
	return false
}

// rowExcluded reports whether (bank, row) names one of the op's own
// aggressor rows: those are being driven, not disturbed. The set to
// test is the pre-TRR active set — every deduplicated aggressor in a
// bank with disturbance is in it, so this equals the sequential
// path's deletion of every raw aggressor key.
func rowExcluded(set []RowRef, bank, row int) bool {
	for _, ag := range set {
		if ag.Bank == bank && ag.Row == row {
			return true
		}
	}
	return false
}

// Hammer evaluates the fault model for one hammer operation and
// returns the candidate flips in all victim rows. The disturbance on
// a victim row is the weighted sum of aggressor activations at row
// distance 1 and 2 within the same bank; a vulnerable cell flips when
// the disturbance reaches its threshold (always for stable cells, with
// probability FlakyP for unstable ones).
//
// Hammer is the batch pipeline run over a single operation; see
// batch.go for the phases. The returned slice is owned by the caller.
func (m *Module) Hammer(op HammerOp) []CandidateFlip {
	b := &m.bat
	b.one[0] = op
	m.lastFlips = nil
	if m.deliverSelf == nil {
		m.deliverSelf = func(_ int, flips []CandidateFlip) error {
			m.lastFlips = flips
			return nil
		}
	}
	// The single-op pipeline cannot fail: errors only come from the
	// deliver callback.
	_ = m.runBatch(b.one[:], nil, m.deliverSelf)
	b.one[0] = HammerOp{}
	return m.lastFlips
}

// Activations returns the total DRAM activations an op performs, for
// virtual-clock charging.
func (op HammerOp) Activations() int64 {
	return int64(op.Rounds) * int64(len(op.Aggressors))
}
