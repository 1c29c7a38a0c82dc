package inspect

// The DRAM heatmap accumulates activation pressure and applied flips
// per (bank, row bucket). Banks are few (32 on both evaluated
// machines) but rows are many (up to 2^16 per bank at full scale), so
// rows fold into a fixed number of buckets: storage is banks×buckets
// int64 pairs regardless of geometry, and recording is two integer
// operations — no allocation on the hammer hot path, which is the
// fidelity condition for hooking the fault model at all.

// RowBuckets is the per-bank bucket count. 64 divides every
// geometry's power-of-two row count evenly, so bucket boundaries land
// on row boundaries at all supported RowBits (11–16, i.e. physical
// address bits 18 through 33 at RowShift 18).
const RowBuckets = 64

// Heatmap is the bucketed accumulator. Not safe for concurrent use on
// its own; the Inspector serializes access.
type Heatmap struct {
	banks int
	rows  int // rows per bank of the most recently bound geometry

	act   [][]int64 // [bank][bucket] window-budgeted activations
	flips [][]int64 // [bank][bucket] applied bit flips

	totalAct   int64
	totalFlips int64
	// maxRowWindow is the largest single-operation per-row activation
	// count seen — the "row window pressure" the dram-row-pressure
	// watchpoint compares against the flip threshold.
	maxRowWindow int64
}

// NewHeatmap sizes a heatmap for banks×rows.
func NewHeatmap(banks, rows int) *Heatmap {
	h := &Heatmap{}
	h.resize(banks, rows)
	return h
}

// resize grows the per-bank arrays; accumulated counts are kept.
func (h *Heatmap) resize(banks, rows int) {
	if banks > h.banks {
		for len(h.act) < banks {
			h.act = append(h.act, make([]int64, RowBuckets))
			h.flips = append(h.flips, make([]int64, RowBuckets))
		}
		h.banks = banks
	}
	if rows > h.rows {
		h.rows = rows
	}
}

// bucketOf maps a row index to its bucket. rows is a power of two in
// every geometry, and buckets divides it, so the mapping is an exact
// partition; the formula also degrades gracefully for odd sizes.
func (h *Heatmap) bucketOf(row int) int {
	if h.rows <= 0 || row < 0 {
		return 0
	}
	b := row * RowBuckets / h.rows
	if b >= RowBuckets {
		b = RowBuckets - 1
	}
	return b
}

// addActivations accumulates n activations on (bank, row).
func (h *Heatmap) addActivations(bank, row int, n int64) {
	if bank < 0 || bank >= h.banks {
		return
	}
	h.act[bank][h.bucketOf(row)] += n
	h.totalAct += n
	if n > h.maxRowWindow {
		h.maxRowWindow = n
	}
}

// addFlip records one applied bit flip on (bank, row).
func (h *Heatmap) addFlip(bank, row int) {
	if bank < 0 || bank >= h.banks {
		return
	}
	h.flips[bank][h.bucketOf(row)]++
	h.totalFlips++
}

// absorb folds another heatmap's accumulation into this one, growing
// dimensions as needed.
func (h *Heatmap) absorb(o *Heatmap) {
	if o == nil {
		return
	}
	h.resize(o.banks, o.rows)
	for b := 0; b < o.banks; b++ {
		for i := 0; i < RowBuckets; i++ {
			h.act[b][i] += o.act[b][i]
			h.flips[b][i] += o.flips[b][i]
		}
	}
	h.totalAct += o.totalAct
	h.totalFlips += o.totalFlips
	if o.maxRowWindow > h.maxRowWindow {
		h.maxRowWindow = o.maxRowWindow
	}
}

// HeatmapSnapshot is the JSON form served at /api/heatmap and embedded
// in run artifacts. Slices are always non-nil ([] never null, the
// PR-3 series contract).
type HeatmapSnapshot struct {
	// Banks and Rows are the covered geometry dimensions (the maximum
	// across absorbed units when several geometries contributed).
	Banks int `json:"banks"`
	Rows  int `json:"rows"`
	// Buckets is the per-bank bucket count; bucket i covers rows
	// [i·Rows/Buckets, (i+1)·Rows/Buckets).
	Buckets int `json:"buckets"`
	// TotalActivations and TotalFlips are whole-module sums.
	TotalActivations int64 `json:"totalActivations"`
	TotalFlips       int64 `json:"totalFlips"`
	// MaxRowWindowActivations is the peak single-window per-row
	// activation count any operation achieved.
	MaxRowWindowActivations int64 `json:"maxRowWindowActivations"`
	// Activations and Flips are [bank][bucket] accumulations.
	Activations [][]int64 `json:"activations"`
	Flips       [][]int64 `json:"flips"`
}

// snapshot deep-copies the accumulator into its JSON form.
func (h *Heatmap) snapshot() HeatmapSnapshot {
	s := HeatmapSnapshot{
		Buckets:     RowBuckets,
		Activations: [][]int64{},
		Flips:       [][]int64{},
	}
	s.Banks = h.banks
	s.Rows = h.rows
	s.TotalActivations = h.totalAct
	s.TotalFlips = h.totalFlips
	s.MaxRowWindowActivations = h.maxRowWindow
	for b := 0; b < h.banks; b++ {
		s.Activations = append(s.Activations, append([]int64(nil), h.act[b]...))
		s.Flips = append(s.Flips, append([]int64(nil), h.flips[b]...))
	}
	return s
}
