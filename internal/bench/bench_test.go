package bench

import (
	"fmt"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the paper's evaluation must be registered.
	want := []string{
		"table1", "fig2", "fig5", "fig6a", "fig6b", "fig6c", "fig7",
		"fig8a", "fig8b", "fig8c", "fig9", "fig10a", "fig10b", "fig10c",
		"fig11", "fig12a", "fig12b",
	}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(IDs()) < len(want) {
		t.Errorf("registry has %d experiments, want >= %d", len(IDs()), len(want))
	}
}

func TestIDsOrderedAndUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, id := range IDs() {
		if seen[id] {
			t.Errorf("duplicate id %s", id)
		}
		seen[id] = true
	}
	if IDs()[0] != "table1" {
		t.Errorf("first experiment %s, want table1", IDs()[0])
	}
}

func TestTable1Shape(t *testing.T) {
	r, _ := Get("table1")
	a := r(Config{Quick: true, Seed: 1})
	if len(a.Rows) != 7 {
		t.Fatalf("table1 has %d rows, want 7", len(a.Rows))
	}
	// Ordering property from the paper: theoretical > seq reads > random
	// reads; random r/w mixes below random reads.
	get := func(i int) float64 {
		var v float64
		if _, err := fmt.Sscan(a.Rows[i][1], &v); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		return v
	}
	theo, seqR, randR, randRW := get(0), get(1), get(4), get(5)
	if !(theo > seqR && seqR > randR && randR > randRW) {
		t.Errorf("bandwidth ordering violated: theo %.1f seq %.1f rand %.1f randRW %.1f",
			theo, seqR, randR, randRW)
	}
	// Paper bands: seq reads ~111 of 127.8, random reads ~85.
	if seqR < 100 || seqR > 120 {
		t.Errorf("seq read bandwidth %.1f outside ~111 band", seqR)
	}
	if randR < 75 || randR > 95 {
		t.Errorf("random read bandwidth %.1f outside ~85 band", randR)
	}
}

func TestFig2ContentionBlowUp(t *testing.T) {
	r, _ := Get("fig2")
	a := r(Config{Quick: true, Seed: 1})
	if len(a.Series) != 4 {
		t.Fatalf("fig2 has %d series", len(a.Series))
	}
	for _, s := range a.Series {
		first, last := s.Y[0], s.Y[len(s.Y)-1]
		if last < first*3 {
			t.Errorf("%s: no contention blow-up (%.0f -> %.0f cycles)", s.Name, first, last)
		}
	}
	// Spinlock must exceed atomic inc at high skew.
	bySuffix := map[string][2]float64{}
	for _, s := range a.Series {
		parts := strings.SplitN(s.Name, " ", 2)
		v := bySuffix[parts[1]]
		if parts[0] == "spinlock" {
			v[0] = s.Y[len(s.Y)-1]
		} else {
			v[1] = s.Y[len(s.Y)-1]
		}
		bySuffix[parts[1]] = v
	}
	for ds, v := range bySuffix {
		if v[0] <= v[1] {
			t.Errorf("%s: spinlock (%.0f) should exceed atomic inc (%.0f) under contention", ds, v[0], v[1])
		}
	}
}

func TestFig5Flat(t *testing.T) {
	r, _ := Get("fig5")
	a := r(Config{Quick: true, Seed: 1})
	s := a.Series[0]
	for i, y := range s.Y {
		if y < 8 || y > 80 {
			t.Errorf("delegation cost at n=%v is %.1f cycles, outside the 22-37 neighborhood", s.X[i], y)
		}
	}
}

func TestFig9Percentiles(t *testing.T) {
	r, _ := Get("fig9")
	a := r(Config{Quick: true, Seed: 1})
	if len(a.Series) < 4 {
		t.Fatalf("fig9 has %d series", len(a.Series))
	}
	// DRAMHiT-P insert latency must be far below DRAMHiT's (fire-and-forget
	// submission vs pipelined completion).
	med := map[string]float64{}
	for _, s := range a.Series {
		// median = x where y crosses 0.5
		for i, y := range s.Y {
			if y >= 0.5 {
				med[s.Name] = s.X[i]
				break
			}
		}
	}
	if med["dramhit-p inserts"] >= med["dramhit inserts"] {
		t.Errorf("median latency: dramhit-p %.0f should be far below dramhit %.0f",
			med["dramhit-p inserts"], med["dramhit inserts"])
	}
	if med["folklore inserts"] >= med["dramhit inserts"] {
		t.Errorf("folklore median %.0f should be below pipelined dramhit %.0f",
			med["folklore inserts"], med["dramhit inserts"])
	}
}

func TestFormatRendersSeriesAndTables(t *testing.T) {
	a := &Artifact{
		ID: "x", Title: "T", XLabel: "x", YLabel: "y",
		Series: []Series{{Name: "s1", X: []float64{1, 2}, Y: []float64{10, 20}}},
		Notes:  []string{"hello"},
	}
	out := Format(a)
	for _, want := range []string{"# x — T", "s1", "10", "20", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted output missing %q:\n%s", want, out)
		}
	}
	tb := &Artifact{ID: "t", Title: "T2", Header: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}}
	if !strings.Contains(Format(tb), "a  b") {
		t.Error("table header not aligned")
	}
}

func TestQuickRunsAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep is slow")
	}
	// Smoke: every runner completes in quick mode and yields data.
	for _, id := range IDs() {
		r, _ := Get(id)
		a := r(Config{Quick: true, Seed: 7})
		if a.ID != id {
			t.Errorf("%s: artifact reports ID %s", id, a.ID)
		}
		if len(a.Series) == 0 && len(a.Rows) == 0 {
			t.Errorf("%s produced no data", id)
		}
		if out := Format(a); len(out) < 40 {
			t.Errorf("%s formatted output suspiciously small", id)
		}
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{
		1:       "1",
		1.5:     "1.5",
		1.25:    "1.25",
		0:       "0",
		1192.04: "1192.04",
		0.2:     "0.2",
	}
	for in, want := range cases {
		if got := trimFloat(in); got != want {
			t.Errorf("trimFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatMismatchedSeriesX(t *testing.T) {
	// Series with disjoint X values must still render, with blanks where a
	// series has no point.
	a := &Artifact{
		ID: "m", Title: "mismatch", XLabel: "x",
		Series: []Series{
			{Name: "a", X: []float64{1, 3}, Y: []float64{10, 30}},
			{Name: "b", X: []float64{2, 3}, Y: []float64{20, 33}},
		},
	}
	out := Format(a)
	for _, want := range []string{"10", "20", "30", "33"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %s:\n%s", want, out)
		}
	}
	// Three x rows (1, 2, 3).
	lines := strings.Count(out, "\n")
	if lines < 5 {
		t.Errorf("unexpectedly few lines:\n%s", out)
	}
}
