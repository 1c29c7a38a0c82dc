package dram

// TRRConfig models in-DRAM Target Row Refresh, one of the two deployed
// hardware mitigations the paper's Section 6 discusses. Real TRR
// implementations keep a small per-bank tracker of frequently
// activated rows and refresh their neighbours before charge leakage
// accumulates; TRRespass (Frigo et al., cited by the paper) showed the
// tracker's limited capacity can be overwhelmed with many-sided
// patterns.
//
// The model: per hammer operation and bank, the tracker catches up to
// Slots aggressor rows (sampling uniformly when there are more) and
// neutralizes their disturbance contribution. A pattern with at most
// Slots aggressors per bank is fully mitigated; wider patterns leak
// the untracked aggressors' disturbance through.
type TRRConfig struct {
	// Slots is the per-bank tracker capacity. Production DDR4 parts
	// reverse engineered by TRRespass track on the order of 1-4
	// aggressors per bank.
	Slots int
	// Seed drives the sampling of which aggressors the tracker
	// catches when oversubscribed.
	Seed uint64
}

// trrScratch is the module-owned reusable state of one trrFilter call.
// Aggressor sets are tiny, so membership is linear scans, like
// Hammer's containsRef.
type trrScratch struct {
	banks   []int32
	rows    []RowRef
	perm    []int
	escaped []RowRef
	ordered []RowRef
}

// trrFilter returns the aggressors whose disturbance escapes the
// tracker for one operation; the module's operation nonce keys the
// sampling so it varies between repeated identical operations. The
// returned slice is module-owned scratch, valid until the next call.
func (m *Module) trrFilter(aggressors []RowRef) []RowRef {
	c := m.cfg.TRR
	if c == nil || c.Slots <= 0 {
		return aggressors
	}
	t := &m.trr
	// Group per bank: the tracker is a per-bank structure. Banks are
	// visited in first-appearance order; per-bank sampling is
	// independently seeded and the final reorder restores input order,
	// so the output matches the old map-iteration version exactly.
	t.banks = t.banks[:0]
	for _, ag := range aggressors {
		if !hasBank(t.banks, int32(ag.Bank)) {
			t.banks = append(t.banks, int32(ag.Bank))
		}
	}
	t.escaped = t.escaped[:0]
	for _, b := range t.banks {
		bank := int(b)
		t.rows = t.rows[:0]
		for _, ag := range aggressors {
			if ag.Bank == bank {
				t.rows = append(t.rows, ag)
			}
		}
		if len(t.rows) <= c.Slots {
			continue // fully tracked and neutralized
		}
		// Oversubscribed: the tracker samples Slots of them; the rest
		// escape. Deterministic per (seed, op, bank). Reseeding the
		// module-owned PCG and shuffling an identity permutation draws
		// the exact stream rand.New(rand.NewPCG(h, ...)).Perm(n) did,
		// without the three allocations.
		h := c.Seed ^ m.ops*0x9E3779B97F4A7C15 ^ uint64(bank)*0xBF58476D1CE4E5B9
		m.trrPCG.Seed(h, h^0x94D049BB133111EB)
		t.perm = t.perm[:0]
		for i := range t.rows {
			t.perm = append(t.perm, i)
		}
		perm := t.perm
		m.trrRand.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for _, i := range perm[c.Slots:] {
			t.escaped = append(t.escaped, t.rows[i])
		}
	}
	// Keep input order for determinism downstream, deduplicating on
	// first hit like the old membership map's delete did.
	if len(t.escaped) > 1 {
		t.ordered = t.ordered[:0]
		for _, ag := range aggressors {
			if removeAllRefs(&t.escaped, ag) {
				t.ordered = append(t.ordered, ag)
			}
		}
		return t.ordered
	}
	return t.escaped
}

// removeAllRefs deletes every occurrence of r from *set (order not
// preserved) and reports whether any was present.
func removeAllRefs(set *[]RowRef, r RowRef) bool {
	s := *set
	found := false
	for i := 0; i < len(s); {
		if s[i] == r {
			s[i] = s[len(s)-1]
			s = s[:len(s)-1]
			found = true
			continue
		}
		i++
	}
	*set = s
	return found
}
