package dram

import (
	"math"

	"hyperhammer/internal/memdef"
)

// Ledger verdict codes for the dram.flip stream, mirroring the
// FlipFired / FlipFlakyNoFire / FlipTRRRefreshed string verdicts as
// foldable words.
const (
	ledVerdictFired = uint64(iota + 1)
	ledVerdictFlakyNoFire
	ledVerdictTRRRefreshed
)

// The batch pipeline evaluates hammer operations in three phases:
//
//	A (sequential) — per-op bookkeeping whose order is semantic:
//	  aggressor dedup, per-bank row-buffer filtering, the operation
//	  nonce, TRR filtering (whose per-bank sampling is keyed by the
//	  nonce), refresh-window clipping. Produces a batchOp per op plus
//	  flat RowRef storage, and registers each op with the banks it
//	  pressures.
//
//	B (per bank) — disturbance accumulation and the threshold-crossing
//	  pass. Each bank independently walks its ops, spreads aggressor
//	  pressure into the bank's struct-of-arrays scratch, and records
//	  every cell whose disturbance crosses its threshold (plus the
//	  TRR-vetoed audit hits) as cellRecords. No RNG, no metrics, no
//	  sink calls — phase B is pure with respect to everything outside
//	  its bank.
//
//	C (sequential) — emission. Per op in submission order: the
//	  caller's pre hook (clock charging), metrics, flip-sink events,
//	  activation-sink feed, the flaky-cell RNG draws over the merged
//	  per-bank records (banks ascending, rows ascending — exactly the
//	  sequential victim order), and delivery of the op's candidate
//	  flips. All RNG draws happen here, on the merge-ordered path.
//
// Hammer is this pipeline run over a single op; HammerBatch amortizes
// phase overhead across many ops that share a refresh window.

// batchOp kinds, in escalating amounts of observable work.
const (
	// opInvalid: Rounds <= 0 or no aggressors; no metrics, no nonce.
	opInvalid = uint8(iota)
	// opInactive: no bank has two distinct aggressor rows, so no
	// activations disturb anyone; op metrics only, no nonce.
	opInactive
	// opFullyNeut: TRR neutralized every active aggressor; metrics,
	// provenance and veto audit, but no disturbance and no RNG.
	opFullyNeut
	// opNormal: disturbance leaks through; the full evaluation.
	opNormal
)

// batchOp is one operation's phase-A verdict. The RowRef sets live in
// batchScratch.refs as (offset, length) windows: the flat slice grows
// (and may reallocate) while later ops are analyzed, so records hold
// offsets, never subslices.
type batchOp struct {
	kind uint8
	// clipped marks ops whose rounds exceeded the refresh window.
	clipped bool
	// h seeds the op's flaky-cell RNG (opNormal only).
	h uint64
	// acts is the op's total DRAM activations (metrics/clock).
	acts int64
	// rounds is as requested; wrounds after window clipping.
	rounds, wrounds int
	// neutCount is how many active aggressors TRR neutralized.
	neutCount int
	// active: the post-dedup, post-bank-filter, post-TRR aggressors.
	activeOff, activeLen int32
	// pre: the pre-TRR active set (== active when TRR is off). This
	// is the exclusion set for victim walks and the provenance
	// stream's aggressor list.
	preOff, preLen int32
	// neut: the neutralized aggressors, in pre order; computed only
	// when a consumer (flip sink or veto-audit metric) is attached.
	neutOff, neutLen int32
}

// cellRecord is one phase-B threshold crossing, waiting for phase C to
// draw its flaky outcome (main records) or emit its veto event (audit
// records). op orders records within a bank; the address is
// precomputed because AddrOfCell is pure.
type cellRecord struct {
	op     int32
	row    int32
	addr   memdef.HPA
	bit    uint8
	dir    FlipDirection
	stable bool
	flakyP float64
	dist   float64
	thr    float64
}

// batchScratch is the module-owned reusable state of one batch run.
type batchScratch struct {
	// epoch stamps the current batch; bankStates joining it compare
	// and reset their buffers lazily.
	epoch uint64
	ops   []batchOp
	// refs is the flat RowRef storage all batchOp windows index.
	refs []RowRef
	// unique is the per-op dedup scratch.
	unique []RowRef
	// banksUsed lists the banks with phase-B work, sorted ascending
	// before evaluation so the phase-C merge order is deterministic.
	banksUsed []int32
	// one adapts the single-op Hammer call onto the pipeline.
	one [1]HammerOp
}

// HammerBatch evaluates a batch of hammer operations that share a
// refresh window and returns the concatenation of their candidate
// flips, exactly as len(ops) sequential Hammer calls would produce
// them. Per-op phase overhead (scratch resets, bank registration) is
// amortized across the batch.
func (m *Module) HammerBatch(ops []HammerOp) []CandidateFlip {
	m.lastFlips = nil
	if m.deliverConcat == nil {
		m.deliverConcat = func(_ int, flips []CandidateFlip) error {
			m.lastFlips = append(m.lastFlips, flips...)
			return nil
		}
	}
	_ = m.runBatch(ops, nil, m.deliverConcat)
	return m.lastFlips
}

// HammerBatchFunc is the explicit-flush batch interface: pre(i), when
// non-nil, runs before op i's effects become observable (the hook
// where the caller charges sim-clock time and its own metrics, so
// flip events carry the same timestamps as sequential submission),
// and deliver(i, flips) receives op i's candidate flips (nil when the
// op produced none). A deliver error aborts the remaining ops
// unevaluated, matching a sequential caller that stops submitting on
// the first failure.
func (m *Module) HammerBatchFunc(ops []HammerOp, pre func(i int), deliver func(i int, flips []CandidateFlip) error) error {
	return m.runBatch(ops, pre, deliver)
}

// regBank joins bank b to the current batch (resetting its buffers if
// it last worked an older batch) and appends op index i to its work
// list.
func (m *Module) regBank(b int, i int32) {
	bs := m.bank(b)
	s := &m.bat
	if bs.epoch != s.epoch {
		bs.epoch = s.epoch
		bs.opIdx = bs.opIdx[:0]
		bs.recs = bs.recs[:0]
		bs.arecs = bs.arecs[:0]
		bs.mCur, bs.aCur = 0, 0
		s.banksUsed = append(s.banksUsed, int32(b))
	}
	if n := len(bs.opIdx); n == 0 || bs.opIdx[n-1] != i {
		bs.opIdx = append(bs.opIdx, i)
	}
}

// containsRef reports membership in a (tiny) RowRef set.
func containsRef(set []RowRef, r RowRef) bool {
	for _, x := range set {
		if x == r {
			return true
		}
	}
	return false
}

// runBatch is the pipeline. See the package comment at the top of
// this file for the phase contract.
func (m *Module) runBatch(ops []HammerOp, pre func(i int), deliver func(i int, flips []CandidateFlip) error) error {
	s := &m.bat
	s.epoch++
	s.ops = s.ops[:0]
	s.refs = s.refs[:0]
	s.banksUsed = s.banksUsed[:0]
	if m.opRand == nil {
		m.opRand = newOpRand(&m.opPCG)
	}
	consumer := m.flip != nil || m.met.trrVetoed != nil || m.ledFlip != nil

	// Phase A: sequential bookkeeping.
	for i := range ops {
		op := &ops[i]
		bop := batchOp{kind: opInvalid, rounds: op.Rounds}
		if op.Rounds <= 0 || len(op.Aggressors) == 0 {
			s.ops = append(s.ops, bop)
			continue
		}
		bop.kind = opInactive
		bop.acts = op.Activations()
		// Deduplicate aggressor rows: repeated accesses to an
		// already-open row are row-buffer hits and cause no extra
		// activations. Aggressor sets are tiny, so the quadratic
		// scans beat a map by a wide margin.
		s.unique = s.unique[:0]
		for _, ag := range op.Aggressors {
			if !containsRef(s.unique, ag) {
				s.unique = append(s.unique, ag)
			}
		}
		// Row buffers are per bank: a row alone in its bank stays
		// open and activates only once per refresh window, far too
		// rarely to disturb neighbours. Only banks with at least two
		// accessed rows see an activation per access — which is why
		// the attack must place both aggressors in the same bank.
		aOff := int32(len(s.refs))
		for _, u := range s.unique {
			n := 0
			for _, v := range s.unique {
				if v.Bank == u.Bank {
					n++
				}
			}
			if n >= 2 {
				s.refs = append(s.refs, u)
			}
		}
		aLen := int32(len(s.refs)) - aOff
		if aLen == 0 {
			s.ops = append(s.ops, bop)
			continue
		}
		m.ops++
		bop.activeOff, bop.activeLen = aOff, aLen
		// In-DRAM Target Row Refresh neutralizes tracked aggressors;
		// only untracked ones disturb their neighbours. The filter's
		// per-bank sampling is keyed by this op's nonce, so it must
		// run here, in submission order.
		if m.cfg.TRR != nil && m.cfg.TRR.Slots > 0 {
			bop.preOff = int32(len(s.refs))
			s.refs = append(s.refs, s.refs[aOff:aOff+aLen]...)
			bop.preLen = aLen
			filtered := m.trrFilter(s.refs[bop.preOff : bop.preOff+bop.preLen])
			copy(s.refs[aOff:], filtered)
			bop.activeLen = int32(len(filtered))
			bop.neutCount = int(aLen) - len(filtered)
		} else {
			bop.preOff, bop.preLen = aOff, aLen
		}
		// The neutralized set (pre order) is materialized only when
		// the provenance stream or the veto audit will read it.
		if bop.neutCount > 0 && consumer {
			bop.neutOff = int32(len(s.refs))
			preS := s.refs[bop.preOff : bop.preOff+bop.preLen]
			actS := s.refs[bop.activeOff : bop.activeOff+bop.activeLen]
			for _, p := range preS {
				if !containsRef(actS, p) {
					s.refs = append(s.refs, p)
				}
			}
			bop.neutLen = int32(len(s.refs)) - bop.neutOff
		}
		// Per-row activations cannot exceed the refresh-window
		// budget: beyond it the victim has been refreshed and the
		// leak restarts.
		bop.wrounds = op.Rounds
		if bop.wrounds > windowActivations {
			bop.wrounds = windowActivations
			bop.clipped = true
		}
		if bop.activeLen == 0 {
			bop.kind = opFullyNeut
		} else {
			bop.kind = opNormal
			// The flaky-cell RNG is keyed by the op's raw content
			// (duplicates included) and its nonce, so a repeated
			// identical op draws fresh outcomes.
			h := m.cfg.Seed ^ 0xA24BAED4963EE407
			for _, ag := range op.Aggressors {
				h = h*0x100000001B3 ^ uint64(ag.Bank)
				h = h*0x100000001B3 ^ uint64(ag.Row)
			}
			h = h*0x100000001B3 ^ uint64(op.Rounds)
			h = h*0x100000001B3 ^ m.ops
			bop.h = h
		}
		idx := int32(len(s.ops))
		for _, ag := range s.refs[bop.activeOff : bop.activeOff+bop.activeLen] {
			m.regBank(ag.Bank, idx)
		}
		for _, ag := range s.refs[bop.neutOff : bop.neutOff+bop.neutLen] {
			m.regBank(ag.Bank, idx)
		}
		s.ops = append(s.ops, bop)
	}

	// Phase B: per-bank crossing pass.
	sortBanks(s.banksUsed)
	for _, b := range s.banksUsed {
		m.evalBank(int(b))
	}

	// Phase C: in-order emission.
	for i := range s.ops {
		if pre != nil {
			pre(i)
		}
		bop := &s.ops[i]
		if bop.kind == opInvalid {
			if deliver != nil {
				if err := deliver(i, nil); err != nil {
					return err
				}
			}
			continue
		}
		m.met.hammerOps.Inc()
		m.met.activations.Add(uint64(bop.acts))
		if bop.kind == opInactive {
			if deliver != nil {
				if err := deliver(i, nil); err != nil {
					return err
				}
			}
			continue
		}
		m.met.trrNeutralized.Add(uint64(bop.neutCount))
		m.met.trrRefreshes.Add(uint64(bop.neutCount))
		if bop.kind == opNormal && bop.clipped {
			m.met.windowClips.Inc()
		}
		if m.flip != nil {
			var neut []RowRef
			if bop.neutLen > 0 {
				neut = s.refs[bop.neutOff : bop.neutOff+bop.neutLen]
			}
			m.flip.BeginHammerOp(FlipOpInfo{
				Aggressors:   s.refs[bop.preOff : bop.preOff+bop.preLen],
				Neutralized:  neut,
				Rounds:       bop.rounds,
				WindowRounds: bop.wrounds,
			})
		}
		if bop.kind == opNormal && (m.sink != nil || m.ledRow != nil) {
			// Post-TRR, post-clip: the sink sees the activations that
			// actually disturb neighbours, which is what a per-row
			// pressure watchpoint wants to compare against thresholds.
			// The ledger folds the same row-state emission.
			for _, ag := range s.refs[bop.activeOff : bop.activeOff+bop.activeLen] {
				if m.sink != nil {
					m.sink.RecordRowActivations(ag.Bank, ag.Row, int64(bop.wrounds))
				}
				m.ledRow.Fold3(uint64(ag.Bank), uint64(ag.Row), uint64(bop.wrounds))
			}
		}
		// Audit what TRR took away before evaluating what leaked
		// through: banks ascending, rows ascending within each —
		// the sequential audit's sorted victim order.
		if bop.neutLen > 0 && consumer {
			vetoed := uint64(0)
			for _, b := range s.banksUsed {
				bs := &m.banks[b]
				for bs.aCur < len(bs.arecs) && bs.arecs[bs.aCur].op == int32(i) {
					r := &bs.arecs[bs.aCur]
					bs.aCur++
					vetoed++
					m.ledFlip.Fold3(uint64(r.addr), uint64(r.bit), ledVerdictTRRRefreshed)
					if m.flip != nil {
						m.flip.RecordFlipEvent(FlipEvent{
							Addr: r.addr, Bit: uint(r.bit), Direction: r.dir,
							Row: RowRef{int(b), int(r.row)}, Disturbance: r.dist,
							Threshold: r.thr, Verdict: FlipTRRRefreshed,
						})
					}
				}
			}
			m.met.trrVetoed.Add(vetoed)
		}
		if bop.kind == opFullyNeut {
			if deliver != nil {
				if err := deliver(i, nil); err != nil {
					return err
				}
			}
			continue
		}
		// Main crossing records: the merge over sorted banks replays
		// the sequential walk's (bank, row) victim order, so the RNG
		// consumes draws in exactly the same sequence.
		m.opPCG.Seed(bop.h, bop.h^0xD6E8FEB86659FD93)
		rng := m.opRand
		var flips []CandidateFlip
		for _, b := range s.banksUsed {
			bs := &m.banks[b]
			for bs.mCur < len(bs.recs) && bs.recs[bs.mCur].op == int32(i) {
				r := &bs.recs[bs.mCur]
				bs.mCur++
				row := RowRef{int(b), int(r.row)}
				fired := true
				if !r.stable {
					// The draw happens regardless of the ledger; the
					// fold only observes its bits (zero perturbation).
					v := rng.Float64()
					m.ledRNG.Fold1(math.Float64bits(v))
					fired = v < r.flakyP
				}
				if !fired {
					m.ledFlip.Fold3(uint64(r.addr), uint64(r.bit), ledVerdictFlakyNoFire)
					if m.flip != nil {
						m.flip.RecordFlipEvent(FlipEvent{
							Addr: r.addr, Bit: uint(r.bit), Direction: r.dir,
							Row: row, Disturbance: r.dist,
							Threshold: r.thr, Verdict: FlipFlakyNoFire,
						})
					}
					continue
				}
				flips = append(flips, CandidateFlip{
					Addr:      r.addr,
					Bit:       uint(r.bit),
					Direction: r.dir,
					Row:       row,
				})
				m.ledFlip.Fold3(uint64(r.addr), uint64(r.bit), ledVerdictFired)
				if m.flip != nil {
					m.flip.RecordFlipEvent(FlipEvent{
						Addr: r.addr, Bit: uint(r.bit), Direction: r.dir,
						Row: row, Disturbance: r.dist,
						Threshold: r.thr, Verdict: FlipFired,
					})
				}
			}
		}
		m.met.candFlips.Add(uint64(len(flips)))
		if deliver != nil {
			if err := deliver(i, flips); err != nil {
				return err
			}
		}
	}
	return nil
}

// evalBank runs phase B for one bank: per registered op, spread the
// op's in-bank aggressor pressure into the struct-of-arrays scratch
// and record every threshold crossing. Touches only this bank's state
// plus immutable module config — safe to run concurrently with other
// banks.
func (m *Module) evalBank(bank int) {
	bs := &m.banks[bank]
	s := &m.bat
	maxRow := m.Geo.Rows()
	consumer := m.flip != nil || m.met.trrVetoed != nil || m.ledFlip != nil
	for _, oi := range bs.opIdx {
		bop := &s.ops[oi]
		pre := s.refs[bop.preOff : bop.preOff+bop.preLen]
		c1 := m.cfg.NeighborWeight1 * float64(bop.wrounds)
		c2 := m.cfg.NeighborWeight2 * float64(bop.wrounds)
		// Accumulate disturbance per victim row from the aggressors
		// that leaked through TRR.
		bs.vRows, bs.vPres = bs.vRows[:0], bs.vPres[:0]
		for _, ag := range s.refs[bop.activeOff : bop.activeOff+bop.activeLen] {
			if ag.Bank == bank {
				addPressure(&bs.vRows, &bs.vPres, ag.Row, maxRow, c1, c2)
			}
		}
		// Veto audit: cells whose disturbance would have reached
		// threshold with the neutralized aggressors' contributions
		// restored, but does not without them. Consumes no RNG.
		if bop.neutLen > 0 && consumer {
			bs.aRows, bs.aPres = bs.aRows[:0], bs.aPres[:0]
			for _, ag := range s.refs[bop.neutOff : bop.neutOff+bop.neutLen] {
				if ag.Bank == bank {
					addPressure(&bs.aRows, &bs.aPres, ag.Row, maxRow, c1, c2)
				}
			}
			sortRowsPres(bs.aRows, bs.aPres)
			for vi, vr := range bs.aRows {
				v := int(vr)
				// Aggressor rows themselves are being driven, not
				// disturbed; the pre-TRR active set covers every
				// aggressor of a bank that has any pressure.
				if rowExcluded(pre, bank, v) {
					continue
				}
				post := 0.0
				for j, r := range bs.vRows {
					if r == vr {
						post = bs.vPres[j]
						break
					}
				}
				preD := bs.aPres[vi] + post
				for _, c := range m.cellsForRow(bs, bank, v) {
					if preD < c.Threshold || post >= c.Threshold {
						continue
					}
					addr, bit := m.AddrOfCell(bank, v, c.BitIndex)
					bs.arecs = append(bs.arecs, cellRecord{
						op: oi, row: vr, addr: addr, bit: uint8(bit),
						dir: c.Direction, dist: preD, thr: c.Threshold,
					})
				}
			}
		}
		if bop.kind != opNormal {
			continue
		}
		// Main crossing pass, victims in row order.
		sortRowsPres(bs.vRows, bs.vPres)
		for vi, vr := range bs.vRows {
			v := int(vr)
			if rowExcluded(pre, bank, v) {
				continue
			}
			d := bs.vPres[vi]
			for _, c := range m.cellsForRow(bs, bank, v) {
				if d < c.Threshold {
					continue
				}
				addr, bit := m.AddrOfCell(bank, v, c.BitIndex)
				bs.recs = append(bs.recs, cellRecord{
					op: oi, row: vr, addr: addr, bit: uint8(bit),
					dir: c.Direction, stable: c.Stable, flakyP: c.FlakyP,
					dist: d, thr: c.Threshold,
				})
			}
		}
	}
}
