// Package bench is the experiment harness: one registered runner per table
// and figure of the paper's evaluation, producing structured artifacts the
// CLI renders as text and EXPERIMENTS.md records. Experiments run on the
// simulated machine (internal/memsim + internal/simtable) except for the
// real-execution spot checks, which drive the actual Go hash tables.
package bench

import (
	"fmt"
	"sort"
	"strings"
)

// Config controls an experiment run.
type Config struct {
	// Quick trades precision for speed (fewer measured ops, fewer sweep
	// points); used by tests and `go test -bench`.
	Quick bool
	// Seed fixes all randomness.
	Seed int64
}

// ops returns the measured-op budget. Quick mode is sized so the whole
// registry smoke-runs within a default `go test` timeout.
func (c Config) ops(full int) int {
	if c.Quick {
		return full / 20
	}
	return full
}

// Series is one line of a figure: Y(X), plus a name for the legend.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Artifact is a regenerated table or figure.
type Artifact struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	// Series carry figure data; Header+Rows carry table data (Table 1).
	Series []Series
	Header []string
	Rows   [][]string
	// Notes document paper-vs-sim observations recorded with the artifact.
	Notes []string
}

// Runner regenerates one artifact.
type Runner func(cfg Config) *Artifact

// registry maps experiment IDs to runners, with ordered IDs for listings.
var (
	registry = map[string]Runner{}
	ordered  []string
)

func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("bench: duplicate experiment " + id)
	}
	registry[id] = r
	ordered = append(ordered, id)
}

// IDs returns all experiment IDs in registration (paper) order.
func IDs() []string { return append([]string(nil), ordered...) }

// Get returns the runner for an experiment ID.
func Get(id string) (Runner, bool) {
	r, ok := registry[id]
	return r, ok
}

// Format renders an artifact as aligned text.
func Format(a *Artifact) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — %s\n", a.ID, a.Title)
	if len(a.Rows) > 0 {
		formatTable(&b, a.Header, a.Rows)
	}
	if len(a.Series) > 0 {
		formatSeries(&b, a)
	}
	for _, n := range a.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func formatTable(b *strings.Builder, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	for _, row := range rows {
		line(row)
	}
}

func formatSeries(b *strings.Builder, a *Artifact) {
	// Collect the union of X values (series may share or differ).
	xs := map[float64]bool{}
	for _, s := range a.Series {
		for _, x := range s.X {
			xs[x] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)

	header := []string{a.XLabel}
	for _, s := range a.Series {
		header = append(header, s.Name)
	}
	rows := make([][]string, 0, len(sorted))
	for _, x := range sorted {
		row := []string{trimFloat(x)}
		for _, s := range a.Series {
			cell := ""
			for i, sx := range s.X {
				if sx == x {
					cell = trimFloat(s.Y[i])
					break
				}
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	if a.YLabel != "" {
		fmt.Fprintf(b, "(y: %s)\n", a.YLabel)
	}
	formatTable(b, header, rows)
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.2f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}
