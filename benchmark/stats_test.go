package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
)

// ramp is 1..n.
func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestQuietEstimators(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	ties := []float64{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}
	for _, c := range []struct {
		name       string
		in         []float64
		rate, cost float64
	}{
		{"exactly 100", hundred, 99.5, 1.5}, // mean of 99, 100 and of 1, 2
		{"ties", ties, 7, 7},
		{"one", []float64{3}, 3, 3},
		{"three", []float64{3, 1, 2}, 3, 1}, // a short input falls back to its extreme
		{"fifty", ramp(50), 50, 1},
		{"fifty-one", ramp(51), 50.5, 1.5},
		{"empty", nil, 0, 0},
	} {
		if got := tailMean(c.in, true); got != c.rate {
			t.Errorf("%s: quiet rate = %v, want %v", c.name, got, c.rate)
		}
		if got := tailMean(c.in, false); got != c.cost {
			t.Errorf("%s: quiet cost = %v, want %v", c.name, got, c.cost)
		}
	}
	if hundred[0] != 100 {
		t.Error("tailMean reordered its input")
	}
}

// A slow phase must not move the quiet estimates, however long it lasts
// short of the whole run: that is their whole point.
func TestQuietEstimatorsIgnoreSlowWindows(t *testing.T) {
	rates := make([]float64, 400)
	costs := make([]float64, 400)
	for i := range rates {
		rates[i], costs[i] = 1000+float64(i%7), 50+float64(i%5)
	}
	quiet := func() (float64, float64) {
		return tailMean(rates, true), tailMean(costs, false)
	}
	r0, c0 := quiet()
	for i := 0; i < 300; i++ { // three quarters of the run hit by interference
		if rates[i] < 1006 && costs[i] > 50 { // keep the tie-breaking values in place
			rates[i] /= 3
			costs[i] *= 3
		}
	}
	if r, c := quiet(); r != r0 || c != c0 {
		t.Errorf("slow windows moved the estimates: rate %v -> %v, cost %v -> %v", r0, r, c0, c)
	}
}

func TestSummarizeCombinesWorkers(t *testing.T) {
	// Two workers, 1000 ops each per window; the window lasts as long as the
	// slower worker.
	recs := make([]windowRec, 100)
	for i := range recs {
		recs[i] = windowRec{ops: 1000, workers: 2, ns: 2_000_000, cpuNS: 3_000_000, p50: 5000, p99: 9000, max: 20000}
	}
	for _, i := range []int{3, 9} { // the two quietest windows: 2% of 100
		recs[i].ns, recs[i].cpuNS, recs[i].p50 = 1_000_000, 1_000_000, 4000
	}
	recs[5].traced = true
	recs[7].cpuNS = 100_000 // cheap but not fast: CPU is read from the fastest windows
	s := summarize(recs, nil)
	if s.ops != 200000 || s.opsPerS != 2e6 {
		t.Errorf("ops %d rate %v, want 200000 and 2e6", s.ops, s.opsPerS)
	}
	if s.cpuSPerMop != 0.5 { // 1 ms of CPU over 2000 ops
		t.Errorf("cpu %v s/Mop, want 0.5", s.cpuSPerMop)
	}
	if s.latP50us != 4 || s.latP99us != 9 || s.latMaxUs != 20 {
		t.Errorf("p50 %v p99 %v max %v us, want 4, 9 and 20", s.latP50us, s.latP99us, s.latMaxUs)
	}
	if got := summarize(recs, untraced).ops; got != 198000 {
		t.Errorf("untraced ops %d, want 198000", got)
	}
	if got := summarize(recs, traced).ops; got != 2000 {
		t.Errorf("traced ops %d, want 2000", got)
	}
}

func TestHistMerge(t *testing.T) {
	var a, b hist
	for v := uint64(1); v <= 100; v++ {
		a.add(v)
		b.add(v + 100)
	}
	a.merge(&b)
	if a.n != 200 || a.max != 200 {
		t.Fatalf("merged n %d max %d", a.n, a.max)
	}
	if p := a.percentile(0.5); math.Abs(p-100) > 1 {
		t.Errorf("merged median %v, want about 100", p)
	}
}

func TestHistPercentileError(t *testing.T) {
	r := newRNG(7, 0)
	for _, scale := range []uint64{40, 300, 5_000, 80_000, 3_000_000, 2_000_000_000} {
		var h hist
		vals := make([]float64, 20000)
		for i := range vals {
			v := scale/2 + r.below(scale)
			vals[i] = float64(v)
			h.add(v)
		}
		sort.Float64s(vals)
		for _, p := range []float64{0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
			exact := vals[int(math.Ceil(p*float64(len(vals))))-1]
			if got := h.percentile(p); math.Abs(got-exact)/exact > 1.0/32 {
				t.Errorf("scale %d p%v: histogram says %v, exact %v", scale, p, got, exact)
			}
		}
		if float64(h.max) != vals[len(vals)-1] {
			t.Errorf("scale %d: max %d, want %v", scale, h.max, vals[len(vals)-1])
		}
	}
	var h hist
	if h.percentile(0.5) != 0 {
		t.Error("empty histogram must report 0")
	}
	h.add(1 << 50) // beyond the last bucket: clamped, not out of range
	if h.percentile(1) <= 0 {
		t.Error("clamped sample lost")
	}
}

func TestHistBucketsAreContiguous(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 255, 256, 257, 511, 512, 1023, 1024, 1 << 20, 1<<20 + 4096, 1 << 40} {
		b := histBucket(v)
		if b < prev {
			t.Fatalf("bucket of %d is %d, below its predecessor's %d", v, b, prev)
		}
		low, width := histBounds(b)
		if float64(v) < low || float64(v) >= low+width {
			t.Errorf("value %d outside its bucket [%v, %v)", v, low, low+width)
		}
		prev = b
	}
}

// The contract measures spread with Python's statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 4, 3, 2, 1}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{2, 4, 4, 5, 9, 12, 30}, 4, 12},
	} {
		if q1, q3 := quartiles(c.in); math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestStreamsAreDeterministic(t *testing.T) {
	get, ups := tblGetDRAM(true), tblUpsertHot(true)
	for _, sz := range []tblSizes{get, ups} {
		sz.workers = 2
		a, absentA := tblStreams(sz, newKeyspace(1), 1)
		b, absentB := tblStreams(sz, newKeyspace(1), 1)
		c, _ := tblStreams(sz, newKeyspace(2), 2)
		for w := range a {
			if streamHash(a[w]) != streamHash(b[w]) || streamHash(absentA[w]) != streamHash(absentB[w]) {
				t.Errorf("worker %d: same seed, different stream", w)
			}
			if streamHash(a[w]) == streamHash(c[w]) {
				t.Errorf("worker %d: different seeds, same stream", w)
			}
		}
		if streamHash(a[0]) == streamHash(a[1]) {
			t.Error("both workers got the same stream")
		}
	}
	kv := kvChurn(true)
	kv.workers = 2
	for w := 0; w < kv.workers; w++ {
		a, b, c := kvStream(kv, 1, w, 5000), kvStream(kv, 1, w, 5000), kvStream(kv, 2, w, 5000)
		if streamHash(a) != streamHash(b) {
			t.Errorf("kv worker %d: same seed, different stream", w)
		}
		if streamHash(a) == streamHash(c) {
			t.Errorf("kv worker %d: different seeds, same stream", w)
		}
	}
}

// Streams must be stationary: no stretch that walks the keys in the order
// the loader inserted them.
func TestStreamsAreShuffled(t *testing.T) {
	const maxRun = 64
	sz := tblGetDRAM(true)
	ks := newKeyspace(3)
	index := make(map[uint64]uint64, 2*sz.keys)
	for i := uint64(0); i < 2*sz.keys; i++ {
		index[ks.key(i)] = i
	}
	streams, _ := tblStreams(sz, ks, 3)
	for w, s := range streams {
		run := 0
		for p := 1; p < len(s); p++ {
			if index[s[p]] == index[s[p-1]]+1 {
				if run++; run > maxRun {
					t.Fatalf("worker %d: more than %d consecutive keys in insertion order at %d", w, maxRun, p)
				}
			} else {
				run = 0
			}
		}
	}
	kv := kvChurn(true)
	kv.workers = 2
	for w := 0; w < kv.workers; w++ {
		s := kvStream(kv, 3, w, 20000)
		run := 0
		for p := 1; p < len(s); p++ {
			if s[p]&kvIdxMask == s[p-1]&kvIdxMask+1 {
				if run++; run > maxRun {
					t.Fatalf("kv worker %d: insertion-ordered run at %d", w, p)
				}
			} else {
				run = 0
			}
		}
	}
}

// The generator's view of which keys are deleted must agree with the
// oracle's at run time, or DELs would aim at dead keys.
func TestKVStreamKeepsItsMix(t *testing.T) {
	sz := kvChurn(true)
	const ops = 40000
	o := newKVOracle(sz, newKeyspace(5), 0, kvStream(sz, 5, 0, ops))
	var gets, absent, sets, resets, dels int
	for i := 0; i < ops; i++ {
		e := o.next()
		switch {
		case e.op == kvGet && e.idx >= sz.keys:
			absent++
		case e.op == kvGet:
			gets++
		case e.op == kvSet && !e.found:
			resets++
		case e.op == kvSet:
			sets++
		case e.op == kvDel && !e.found:
			t.Fatalf("op %d deletes a key that is already deleted", i)
		default:
			dels++
		}
	}
	pct := func(n int) float64 { return 100 * float64(n) / ops }
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"GET", pct(gets + absent), 60}, {"absent GET", pct(absent), 3},
		{"SET", pct(sets), 30}, {"DEL", pct(dels), 5}, {"re-SET", pct(resets), 5},
	} {
		if math.Abs(c.got-c.want) > 1 {
			t.Errorf("%s share %.2f%%, want about %v%%", c.name, c.got, c.want)
		}
	}
}

func TestValuesRoundTrip(t *testing.T) {
	ks := newKeyspace(9)
	for _, n := range []int{8, 9, 16, 17, 64, 80, 128} {
		v := ks.appendValue(nil, 12345, 7, n)
		if len(v) != n {
			t.Fatalf("value of length %d came out %d bytes", n, len(v))
		}
		if i, ver, ok := headerOf(v); !ok || i != 12345 || ver != 7 {
			t.Errorf("header of %d-byte value: %d %d %v", n, i, ver, ok)
		}
	}
	if k := ks.appendKey(nil, 1); len(k) != keyBytes {
		t.Errorf("key is %d bytes", len(k))
	}
	if _, _, ok := headerOf([]byte("short")); ok {
		t.Error("a 5-byte value cannot carry a header")
	}
	for i := 0; i < 1000; i++ {
		if n := valueLen(uint32(i), 3, 16, 80); n < 16 || n > 80 {
			t.Fatalf("valueLen out of range: %d", n)
		}
	}
}

// BENCHMARK.json is what the driver gates on; the tables in main.go and
// aa.go are the harness's copy of it.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds %d, the sizes are calibrated to %d", spec.RunSeconds, nominalSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the harness", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not in the harness", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Bound != d.bound ||
			(m.Better == "higher") != d.higher {
			t.Errorf("end-to-end metric %d: %+v differs from the harness's %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the harness", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: %+v differs from the harness's %+v", i, m, perLayer[i])
		}
	}
}

// streamHash folds a stream into one word (FNV-1a over its entries) so a
// test can compare whole streams.
func streamHash[T uint32 | uint64](s []T) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range s {
		h = (h ^ uint64(v)) * 1099511628211
	}
	return h
}
