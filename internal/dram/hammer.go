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

// verdictNames maps a ledger verdict code to its flip-sink verdict.
var verdictNames = [...]string{
	ledVerdictFired:        FlipFired,
	ledVerdictFlakyNoFire:  FlipFlakyNoFire,
	ledVerdictTRRRefreshed: FlipTRRRefreshed,
}

// opScratch is the module-owned reusable state of one Hammer call.
// Aggressor sets are tiny, so every set operation is a linear scan.
type opScratch struct {
	// unique is the deduplicated aggressor list; pre keeps the rows in
	// banks with at least two of them (the pre-TRR active set), and
	// neut the rows TRR neutralized, in pre order.
	unique, pre, neut []RowRef
	// banks lists the banks of pre, ascending.
	banks []int32
	// rows[i] carries pres[i] disturbance from the aggressors that
	// leaked through TRR, for one bank; aRows/aPres are the
	// neutralized aggressors' share, for the veto audit.
	rows, aRows []int32
	pres, aPres []float64
}

// Hammer evaluates the fault model for one hammer operation and
// returns the candidate flips in all victim rows. The disturbance on a
// victim row is the weighted sum of aggressor activations at row
// distance 1 and 2 within the same bank; a vulnerable cell flips when
// the disturbance reaches its threshold (always for stable cells, with
// probability FlakyP for unstable ones).
//
// The order of the steps is part of the result, because the flaky-cell
// draws, the flip sink and the ledger all observe it:
//
//  1. the hammer-op and activation counters, for every op with rounds
//     and aggressors;
//  2. the operation nonce, advanced only when the bank filter leaves
//     an aggressor;
//  3. TRR, whose per-bank sampling is keyed by the nonce;
//  4. BeginHammerOp, then the activation-sink and dram.row folds;
//  5. the veto audit's trr-refreshed verdicts, banks then rows
//     ascending;
//  6. the crossing verdicts with their RNG draws, in the same order.
//
// The returned slice is owned by the caller.
func (m *Module) Hammer(op HammerOp) []CandidateFlip {
	if op.Rounds <= 0 || len(op.Aggressors) == 0 {
		return nil
	}
	m.met.hammerOps.Inc()
	m.met.activations.Add(uint64(op.Activations()))
	s := &m.scr
	// Deduplicate aggressor rows: repeated accesses to an already-open
	// row are row-buffer hits and cause no extra activations.
	s.unique = s.unique[:0]
	for _, ag := range op.Aggressors {
		if !containsRef(s.unique, ag) {
			s.unique = append(s.unique, ag)
		}
	}
	// Row buffers are per bank: a row alone in its bank stays open and
	// activates only once per refresh window, far too rarely to disturb
	// neighbours. Only banks with at least two accessed rows see an
	// activation per access — which is why the attack must place both
	// aggressors in the same bank.
	s.pre, s.banks = s.pre[:0], s.banks[:0]
	for _, u := range s.unique {
		n := 0
		for _, v := range s.unique {
			if v.Bank == u.Bank {
				n++
			}
		}
		if n < 2 {
			continue
		}
		s.pre = append(s.pre, u)
		if !hasBank(s.banks, int32(u.Bank)) {
			s.banks = append(s.banks, int32(u.Bank))
		}
	}
	if len(s.pre) == 0 {
		return nil
	}
	m.ops++
	sortBanks(s.banks)
	// In-DRAM Target Row Refresh neutralizes tracked aggressors; only
	// untracked ones disturb their neighbours.
	active := m.trrFilter(s.pre)
	neutCount := uint64(len(s.pre) - len(active))
	m.met.trrNeutralized.Add(neutCount)
	m.met.trrRefreshes.Add(neutCount)
	// Per-row activations cannot exceed the refresh-window budget:
	// beyond it the victim has been refreshed and the leak restarts.
	wrounds := op.Rounds
	if wrounds > windowActivations {
		wrounds = windowActivations
		if len(active) > 0 {
			m.met.windowClips.Inc()
		}
	}
	// The neutralized set, and the audit over it, exist only when the
	// provenance stream or a veto counter will read them.
	audit := neutCount > 0 && (m.flip != nil || m.met.trrVetoed != nil || m.ledFlip != nil)
	var neut []RowRef
	if audit {
		s.neut = s.neut[:0]
		for _, p := range s.pre {
			if !containsRef(active, p) {
				s.neut = append(s.neut, p)
			}
		}
		neut = s.neut
	}
	if m.flip != nil {
		m.flip.BeginHammerOp(FlipOpInfo{
			Aggressors:   s.pre,
			Neutralized:  neut,
			Rounds:       op.Rounds,
			WindowRounds: wrounds,
		})
	}
	// Post-TRR, post-clip: the sink sees the activations that actually
	// disturb neighbours, which is what a per-row pressure watchpoint
	// wants to compare against thresholds. The ledger folds the same
	// row-state emission.
	for _, ag := range active {
		if m.sink != nil {
			m.sink.RecordRowActivations(ag.Bank, ag.Row, int64(wrounds))
		}
		m.ledRow.Fold3(uint64(ag.Bank), uint64(ag.Row), uint64(wrounds))
	}

	maxRow := m.Geo.Rows()
	c1 := neighborWeight1 * float64(wrounds)
	c2 := neighborWeight2 * float64(wrounds)
	// Veto audit: cells whose disturbance would have reached threshold
	// with the neutralized aggressors' contributions restored, but does
	// not without them. Consumes no RNG.
	if audit {
		vetoed := uint64(0)
		for _, b := range s.banks {
			bank := int(b)
			s.rows, s.pres = spread(s.rows[:0], s.pres[:0], active, bank, maxRow, c1, c2)
			s.aRows, s.aPres = spread(s.aRows[:0], s.aPres[:0], neut, bank, maxRow, c1, c2)
			sortRowsPres(s.aRows, s.aPres)
			for i, vr := range s.aRows {
				v := int(vr)
				if rowExcluded(s.pre, bank, v) {
					continue
				}
				post := 0.0
				for j, r := range s.rows {
					if r == vr {
						post = s.pres[j]
						break
					}
				}
				preD := s.aPres[i] + post
				for _, c := range m.VulnerableCells(bank, v) {
					if preD >= c.Threshold && post < c.Threshold {
						vetoed++
						m.emit(bank, v, c, preD, ledVerdictTRRRefreshed)
					}
				}
			}
		}
		m.met.trrVetoed.Add(vetoed)
	}
	if len(active) == 0 {
		return nil
	}

	// The flaky-cell RNG is keyed by the op's raw content (duplicates
	// included) and its nonce, so a repeated identical op draws fresh
	// outcomes.
	h := m.cfg.Seed ^ 0xA24BAED4963EE407
	for _, ag := range op.Aggressors {
		h = h*0x100000001B3 ^ uint64(ag.Bank)
		h = h*0x100000001B3 ^ uint64(ag.Row)
	}
	h = h*0x100000001B3 ^ uint64(op.Rounds)
	h = h*0x100000001B3 ^ m.ops
	m.opPCG.Seed(h, h^0xD6E8FEB86659FD93)
	var flips []CandidateFlip
	for _, b := range s.banks {
		bank := int(b)
		s.rows, s.pres = spread(s.rows[:0], s.pres[:0], active, bank, maxRow, c1, c2)
		sortRowsPres(s.rows, s.pres)
		for i, vr := range s.rows {
			v := int(vr)
			if rowExcluded(s.pre, bank, v) {
				continue
			}
			d := s.pres[i]
			for _, c := range m.VulnerableCells(bank, v) {
				if d < c.Threshold {
					continue
				}
				verdict := ledVerdictFired
				if !c.Stable {
					// The draw happens regardless of the ledger; the
					// fold only observes its bits (zero perturbation).
					x := m.opRand.Float64()
					m.ledRNG.Fold1(math.Float64bits(x))
					if x >= c.FlakyP {
						verdict = ledVerdictFlakyNoFire
					}
				}
				addr, bit := m.emit(bank, v, c, d, verdict)
				if verdict == ledVerdictFired {
					flips = append(flips, CandidateFlip{Addr: addr, Bit: bit, Direction: c.Direction, Row: RowRef{bank, v}})
				}
			}
		}
	}
	m.met.candFlips.Add(uint64(len(flips)))
	return flips
}

// emit folds one cell verdict into the dram.flip ledger stream and
// reports it to the flip sink, returning the cell's address.
func (m *Module) emit(bank, row int, c Cell, dist float64, verdict uint64) (memdef.HPA, uint) {
	addr, bit := m.AddrOfCell(bank, row, c.BitIndex)
	m.ledFlip.Fold3(uint64(addr), uint64(bit), verdict)
	if m.flip != nil {
		m.flip.RecordFlipEvent(FlipEvent{
			Addr: addr, Bit: bit, Direction: c.Direction,
			Row: RowRef{bank, row}, Disturbance: dist,
			Threshold: c.Threshold, Verdict: verdictNames[verdict],
		})
	}
	return addr, bit
}

// neighborOffsets is the blast radius of one aggressor: row distances
// whose disturbance weight is nonzero, in accumulation order.
var neighborOffsets = [4]int{-2, -1, 1, 2}

// neighborWeight1 and neighborWeight2 weight the disturbance an
// aggressor contributes to the rows at distance 1 and 2. Distances
// beyond 2 contribute nothing (blast radius 2).
const (
	neighborWeight1 = 1.0
	neighborWeight2 = 0.25
)

// spread accumulates the neighbour disturbance of aggs' rows in bank
// into the (rows, pressure) struct-of-arrays scratch and returns it.
// c1/c2 are the distance-1/distance-2 contributions (weight × rounds);
// the float additions run in aggressor-then-offset order, so the sums
// do not depend on how the scratch was laid out before.
func spread(rows []int32, pres []float64, aggs []RowRef, bank, maxRow int, c1, c2 float64) ([]int32, []float64) {
	for _, ag := range aggs {
		if ag.Bank != bank {
			continue
		}
		for _, d := range neighborOffsets {
			v := ag.Row + d
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
	}
	return rows, pres
}

// sortRowsPres insertion-sorts the parallel (rows, pressure) arrays by
// row ascending. Rows are unique, so victims are visited in row order.
func sortRowsPres(rows []int32, pres []float64) {
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && rows[j] < rows[j-1]; j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
			pres[j], pres[j-1] = pres[j-1], pres[j]
		}
	}
}

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

// containsRef reports membership in a (tiny) RowRef set.
func containsRef(set []RowRef, r RowRef) bool {
	for _, x := range set {
		if x == r {
			return true
		}
	}
	return false
}

// rowExcluded reports whether (bank, row) names one of the op's own
// aggressor rows: those are being driven, not disturbed. The pre-TRR
// active set covers every aggressor of a bank that has any pressure.
func rowExcluded(set []RowRef, bank, row int) bool {
	for _, ag := range set {
		if ag.Bank == bank && ag.Row == row {
			return true
		}
	}
	return false
}
