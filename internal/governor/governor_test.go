package governor

import (
	"sync"
	"testing"
)

// env models a workload as a pure map from configuration to epoch sample:
// the throughput surface the controller climbs, plus the sensor reading
// (combine hit-rate) that configuration would produce. A
// deterministic ±1% alternating jitter — well inside the 5% adoption
// margin — stands in for measurement noise.
type env struct {
	tput     func(d Decision) float64 // ops per ns, scaled arbitrarily
	combine  float64                  // combine hit-rate when combining is on
	epochOps uint64
	step     int
}

func (e *env) sample(d Decision) Sample {
	e.step++
	t := e.tput(d)
	if e.step%2 == 0 {
		t *= 1.01
	} else {
		t *= 0.99
	}
	ops := e.epochOps
	s := Sample{Ops: ops, NS: uint64(float64(ops) / t)}
	if d.Combine && !d.Direct {
		s.CombineHits = uint64(float64(ops) * e.combine)
	}
	return s
}

// drive runs the controller against the environment for maxEpochs and
// returns the decision trace.
func drive(c *Controller, e *env, maxEpochs int) []Decision {
	trace := make([]Decision, 0, maxEpochs)
	for i := 0; i < maxEpochs; i++ {
		d := c.Step(e.sample(c.Current()))
		trace = append(trace, d)
	}
	return trace
}

// requireConverged asserts that the trace's tail is constant and equal to
// want within kMax epochs, and that the controller reports pinned.
func requireConverged(t *testing.T, c *Controller, trace []Decision, want Decision, kMax int) {
	t.Helper()
	conv := -1
	for i, d := range trace {
		if d == want {
			// Converged only if every later decision matches too.
			stable := true
			for _, e := range trace[i:] {
				if e != want {
					stable = false
					break
				}
			}
			if stable {
				conv = i
				break
			}
		}
	}
	if conv < 0 {
		t.Fatalf("never converged to %v; tail = %v", want, trace[len(trace)-5:])
	}
	if conv > kMax {
		t.Fatalf("converged at epoch %d, want <= %d", conv, kMax)
	}
	if !c.Pinned() {
		t.Fatalf("converged but not pinned after %d epochs", len(trace))
	}
}

// capAll is the full-capability table every test explores from.
var capAll = Config{Window: 16, Combining: true, Direct: true, EpochOps: 1024}

// TestConvergeDirectUniform models the folklore-gap workload: uniform keys,
// nothing combines, and the async machinery's fixed overhead exceeds the
// latency it hides — direct mode is strictly fastest. The controller must
// find it and pin.
func TestConvergeDirectUniform(t *testing.T) {
	e := &env{
		tput: func(d Decision) float64 {
			if d.Direct {
				return 10
			}
			// Pipelined pays ring overhead; combining scans buy nothing
			// without duplicates; deeper windows amortize slightly better.
			t := 6 + 0.05*float64(d.Window)
			if d.Combine {
				t -= 0.3
			}
			return t
		},
		combine:  0,
		epochOps: 1024,
	}
	c := NewController(capAll)
	trace := drive(c, e, 64)
	requireConverged(t, c, trace, Decision{Direct: true, Window: 16}, 32)
}

// TestConvergeCombineZipf models a high-skew many-worker stream: in-window
// combining collapses the hot keys' traffic, making the full pipeline the
// winner over both direct and combining-off.
func TestConvergeCombineZipf(t *testing.T) {
	e := &env{
		tput: func(d Decision) float64 {
			if d.Direct {
				return 7
			}
			t := 8 + 0.01*float64(d.Window)
			if d.Combine {
				t += 4 // hot keys fold: fewer probes, fewer atomics
			}
			return t
		},
		combine:  0.35,
		epochOps: 1024,
	}
	c := NewController(capAll)
	trace := drive(c, e, 64)
	requireConverged(t, c, trace, Decision{Window: 16, Combine: true}, 32)
}

// TestConvergeShallowWindow models a single low-occupancy worker where a
// shallow pipeline wins (less ring churn) but direct loses (the misses do
// overlap a little): the window hill-climb must walk 16 → 8 → ... → 2.
func TestConvergeShallowWindow(t *testing.T) {
	e := &env{
		tput: func(d Decision) float64 {
			if d.Direct {
				return 5
			}
			// Peak at window 2.
			switch {
			case d.Window <= 2:
				return 10
			case d.Window <= 4:
				return 9
			case d.Window <= 8:
				return 8
			default:
				return 7
			}
		},
		combine:  0.1,
		epochOps: 1024,
	}
	c := NewController(capAll)
	trace := drive(c, e, 96)
	requireConverged(t, c, trace, Decision{Window: 2, Combine: true}, 64)
}

// TestNoOscillation pins the hysteresis guarantee: once converged, sub-margin
// throughput jitter must never unpin the controller or change the decision.
func TestNoOscillation(t *testing.T) {
	e := &env{
		tput: func(d Decision) float64 {
			if d.Direct {
				return 10
			}
			return 6
		},
		epochOps: 1024,
	}
	c := NewController(capAll)
	drive(c, e, 64)
	if !c.Pinned() {
		t.Fatal("controller did not pin")
	}
	want := c.Current()
	// 3% jitter: inside the margin band, inside the drift band.
	for i := 0; i < 256; i++ {
		s := e.sample(c.Current())
		s.NS = s.NS * uint64(100+3*(i%2)) / 100
		if d := c.Step(s); d != want {
			t.Fatalf("epoch %d: pinned decision changed %v -> %v", i, want, d)
		}
	}
	if !c.Pinned() {
		t.Fatal("sub-margin jitter unpinned the controller")
	}
}

// TestDriftReopens verifies the converse: a workload change (throughput
// collapse on the pinned configuration) re-opens exploration and the
// controller re-converges to the new optimum.
func TestDriftReopens(t *testing.T) {
	direct := 10.0
	e := &env{
		tput: func(d Decision) float64 {
			if d.Direct {
				return direct
			}
			t := 8.0
			if d.Combine {
				t += 1
			}
			return t
		},
		combine:  0.2,
		epochOps: 1024,
	}
	c := NewController(capAll)
	drive(c, e, 64)
	if got := c.Current(); !got.Direct {
		t.Fatalf("phase 1: expected direct, got %v", got)
	}
	// Phase change: duplicates appear, direct collapses.
	direct = 4
	trace := drive(c, e, 96)
	requireConverged(t, c, trace, Decision{Window: 16, Combine: true}, 96)
}

// TestCapabilityBounds: a table built without combining must never see a
// decision enabling it.
func TestCapabilityBounds(t *testing.T) {
	e := &env{
		tput:     func(d Decision) float64 { return 10 },
		epochOps: 1024,
	}
	c := NewController(Config{Window: 8, Combining: false, Direct: true, EpochOps: 1024})
	for _, d := range drive(c, e, 64) {
		if d.Combine {
			t.Fatalf("decision %v enables a feature the table lacks", d)
		}
		if d.Window > 8 {
			t.Fatalf("decision %v exceeds constructed window", d)
		}
	}
}

func TestPackUnpack(t *testing.T) {
	cases := []Decision{
		{},
		{Direct: true},
		{Window: 1},
		{Window: 255, Combine: true},
		{Direct: true, Window: 16},
	}
	for _, d := range cases {
		got := Unpack(Pack(d, 77))
		want := d
		if want.Window < 1 {
			want.Window = 1 // Pack clamps
		}
		if got != want {
			t.Fatalf("roundtrip %v -> %v", d, got)
		}
	}
	if w1, w2 := Pack(Decision{Window: 4}, 1), Pack(Decision{Window: 4}, 2); w1 == w2 {
		t.Fatal("epochs must distinguish identical decisions")
	}
}

// TestGovernorFeedConcurrent exercises the CAS-latched epoch step from many
// feeders at once (run under -race in CI).
func TestGovernorFeedConcurrent(t *testing.T) {
	g := New(Config{Window: 16, Combining: true, Direct: true, EpochOps: 512})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4096; i++ {
				g.Feed(Sample{Ops: 64, NS: 6400})
				_ = g.Word()
			}
		}()
	}
	wg.Wait()
	if g.Epochs() == 0 {
		t.Fatal("no epochs stepped")
	}
	m := g.Metrics()
	for _, k := range []string{"governor_mode", "governor_window", "governor_epochs"} {
		if _, ok := m[k]; !ok {
			t.Fatalf("Metrics missing %s", k)
		}
	}
}

// TestForcedGovernor: a forced governor never moves.
func TestForcedGovernor(t *testing.T) {
	d := Decision{Direct: true, Window: 3}
	g := NewForced(d)
	w := g.Word()
	for i := 0; i < 1000; i++ {
		g.Feed(Sample{Ops: 1000, NS: 100})
	}
	if g.Word() != w {
		t.Fatal("forced governor changed its word")
	}
	if g.Decision() != d {
		t.Fatalf("forced decision %v != %v", g.Decision(), d)
	}
	if !g.Pinned() {
		t.Fatal("forced governor must report pinned")
	}
}
