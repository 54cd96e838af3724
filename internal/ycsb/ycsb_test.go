package ycsb

import (
	"math"
	"testing"

	"dramhit/internal/table"
)

func TestByName(t *testing.T) {
	for _, name := range []string{"A", "B", "C", "D", "E", "F", "a", "f"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%s): %v", name, err)
		}
	}
	if _, err := ByName("Z"); err == nil {
		t.Error("ByName(Z) should fail")
	}
}

// TestEffectiveTheta pins the default resolution the generator draws with
// and loadgen reports.
func TestEffectiveTheta(t *testing.T) {
	for _, c := range []struct {
		mix   Mix
		theta float64
		want  float64
	}{
		{A, -1, Theta},
		{A, 0, 0},
		{A, 0.6, 0.6},
		{Mix{Read: 1}, -1, 0},
	} {
		if got := EffectiveTheta(c.mix, c.theta); got != c.want {
			t.Errorf("EffectiveTheta(%+v, %v) = %v, want %v", c.mix, c.theta, got, c.want)
		}
	}
}

func TestMixProportionsSumToOne(t *testing.T) {
	for _, m := range []Mix{A, B, C, D, E, F} {
		sum := 0.0
		for _, p := range m.Proportions() {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("workload %s proportions sum to %f", m.Name, sum)
		}
	}
}

func TestGeneratorHonorsMix(t *testing.T) {
	const n = 100_000
	for _, m := range []Mix{A, B, E, F} {
		g := NewGenerator(m, 10_000, 1)
		counts := map[OpKind]int{}
		for i := 0; i < n; i++ {
			op := g.Next()
			counts[op.Kind]++
			if op.Kind == Scan && (op.ScanLen < 1 || op.ScanLen > 100) {
				t.Fatalf("scan length %d out of range", op.ScanLen)
			}
		}
		for kind, want := range m.Proportions() {
			got := float64(counts[kind]) / n
			if math.Abs(got-want) > 0.01 {
				t.Errorf("workload %s: %v proportion %.3f, want %.2f", m.Name, kind, got, want)
			}
		}
	}
}

func TestZipfianSkewPresent(t *testing.T) {
	g := NewGenerator(C, 100_000, 2)
	counts := map[uint64]int{}
	for i := 0; i < 50_000; i++ {
		counts[g.Next().Key]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// Under theta 0.99 the hottest key draws a large multiple of the mean.
	if max < 200 {
		t.Errorf("hottest key only %d hits; zipfian skew missing", max)
	}
}

func TestInsertsAreFreshKeys(t *testing.T) {
	g := NewGenerator(D, 1000, 3)
	load := map[uint64]bool{}
	for _, k := range LoadKeys(1000, 3) {
		load[k] = true
	}
	seen := map[uint64]bool{}
	for i := 0; i < 20_000; i++ {
		op := g.Next()
		if op.Kind != Insert {
			continue
		}
		if load[op.Key] {
			t.Fatal("insert collided with a loaded key")
		}
		if seen[op.Key] {
			t.Fatal("insert key repeated")
		}
		seen[op.Key] = true
	}
	if len(seen) == 0 {
		t.Fatal("workload D produced no inserts")
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := NewGenerator(A, 1000, 9)
	b := NewGenerator(A, 1000, 9)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seed generators diverged")
		}
	}
}

// TestRunAgainstTable smoke-runs workload A against a real table via the
// conventional op mapping.
func TestRunAgainstTable(t *testing.T) {
	var m table.Map = newTestTable()
	for _, k := range LoadKeys(4096, 5) {
		m.Put(k, 1)
	}
	g := NewGenerator(A, 4096, 5)
	for i := 0; i < 20_000; i++ {
		op := g.Next()
		switch op.Kind {
		case Read:
			m.Get(op.Key)
		case Update:
			m.Put(op.Key, uint64(i))
		case Insert:
			m.Put(op.Key, 1)
		case ReadModifyWrite:
			if v, ok := m.Get(op.Key); ok {
				m.Put(op.Key, v+1)
			}
		case Scan:
			for j := 0; j < op.ScanLen; j++ {
				m.Get(op.Key + uint64(j))
			}
		}
	}
	if m.Len() == 0 {
		t.Fatal("table empty after workload")
	}
}

func newTestTable() table.Map {
	return tblFactory()
}

// TestGeneratorMissReadsAreAbsent checks the -missratio plumbing: redirected
// reads must never hit a loaded key or any key an Insert op (same seed) can
// produce, and miss=0 must reproduce the plain generator exactly.
func TestGeneratorMissReadsAreAbsent(t *testing.T) {
	const records, seed = 1000, 3
	reachable := map[uint64]bool{}
	for _, k := range LoadKeys(records, seed) {
		reachable[k] = true
	}
	// Workload D inserts fresh keys as it runs; collect the keys a miss-free
	// twin produces so the miss stream can be checked against all of them.
	twin := NewGenerator(D, records, seed)
	for i := 0; i < 50_000; i++ {
		reachable[twin.Next().Key] = true
	}
	g := NewGeneratorMiss(D, records, seed, 0.5)
	missed := 0
	reads := 0
	for i := 0; i < 50_000; i++ {
		op := g.Next()
		if op.Kind != Read {
			continue
		}
		reads++
		if !reachable[op.Key] {
			missed++
		}
	}
	if reads == 0 {
		t.Fatal("workload D produced no reads")
	}
	frac := float64(missed) / float64(reads)
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("miss fraction %.3f, want ~0.50", frac)
	}

	a := NewGenerator(A, records, seed)
	b := NewGeneratorMiss(A, records, seed, 0)
	for i := 0; i < 2000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("miss=0 generator diverged from plain generator")
		}
	}
}
