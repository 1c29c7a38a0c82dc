// Package report formats experiment results as aligned text tables and
// plot-ready series, shared by the hh tables command and the benchmark
// harness so every table and figure of the paper is regenerated with
// one consistent look.
package report

import (
	"fmt"
	"strings"
	"time"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(values ...any) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			if x != 0 && x > -0.1 && x < 0.1 {
				row[i] = fmt.Sprintf("%.3g", x)
			} else {
				row[i] = fmt.Sprintf("%.1f", x)
			}
		case time.Duration:
			row[i] = FormatDuration(x)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Series is one line of a figure: (x, y) points with a label.
type Series struct {
	Label  string
	Points []Point
}

// Point is one figure sample.
type Point struct {
	X, Y float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{x, y}) }

// Figure is a set of series with axis labels, rendered as TSV columns
// (x, then one column per series) so the output can be piped straight
// into a plotting tool.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// NewFigure creates a figure.
func NewFigure(title, xLabel, yLabel string) *Figure {
	return &Figure{Title: title, XLabel: xLabel, YLabel: yLabel}
}

// AddSeries registers and returns a new series.
func (f *Figure) AddSeries(label string) *Series {
	s := &Series{Label: label}
	f.Series = append(f.Series, s)
	return s
}

// String renders the figure as commented TSV. Series are emitted
// sequentially (they may have different x grids).
func (f *Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n# x: %s, y: %s\n", f.Title, f.XLabel, f.YLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "# series: %s\n", s.Label)
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%g\t%g\n", p.X, p.Y)
		}
	}
	return b.String()
}

// Summary returns per-series min/max/final values, the quick textual
// readout used in benchmark logs.
func (f *Figure) Summary() string {
	var b strings.Builder
	for _, s := range f.Series {
		if len(s.Points) == 0 {
			continue
		}
		minY, maxY := s.Points[0].Y, s.Points[0].Y
		for _, p := range s.Points {
			if p.Y < minY {
				minY = p.Y
			}
			if p.Y > maxY {
				maxY = p.Y
			}
		}
		final := s.Points[len(s.Points)-1].Y
		fmt.Fprintf(&b, "%s: start=%g min=%g max=%g final=%g points=%d\n",
			s.Label, s.Points[0].Y, minY, maxY, final, len(s.Points))
	}
	return b.String()
}

// MetricsSnapshot is the subset of metrics.Snapshot this package needs,
// duplicated here so report does not import the metrics package (report
// sits below every subsystem in the dependency order).
type MetricsSnapshot interface {
	// Rows yields one (name, labels, kind, value) row per series, in
	// deterministic order. Histograms are summarized as count and sum.
	Rows() [][4]string
}

// MetricsTable renders a metrics snapshot as a human-readable table:
// one row per series, histograms summarized by count and sum.
func MetricsTable(snap MetricsSnapshot) *Table {
	t := NewTable("Metrics", "metric", "labels", "kind", "value")
	for _, r := range snap.Rows() {
		t.AddRow(r[0], r[1], r[2], r[3])
	}
	return t
}

// FormatDuration renders simulated durations in the paper's units:
// seconds up to minutes, then hours, then days.
func FormatDuration(d time.Duration) string {
	switch {
	case d < time.Minute:
		return fmt.Sprintf("%.1fs", d.Seconds())
	case d < time.Hour:
		return fmt.Sprintf("%.1fmin", d.Minutes())
	case d < 100*time.Hour:
		return fmt.Sprintf("%.1fh", d.Hours())
	default:
		return fmt.Sprintf("%.1fd", d.Hours()/24)
	}
}

// Percent formats a ratio as a paper-style percentage.
func Percent(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
