// The introspection A/B: what the PR-9 observability extras cost and
// whether what they report is true.
//
// Three sections, all real execution on the dramhit table:
//
//  1. Overhead — the same mixed zipf stream through one handle with
//     observation off, with the plain registry attached, and with the
//     introspection arms (hot-key sketch + per-op-class latency) enabled.
//     The introspected side must stay within a few percent of off.
//  2. Sketch recall — the Space-Saving hot-key ranking against exact
//     counts of the same stream at zipf θ ∈ {0.90, 0.99}; acceptance is
//     recall@16 ≥ 0.9 at θ = 0.99.
//  3. Heatmap consistency — the /heatmap bucket collector scraped at 75%
//     fill: its fill gauge must match the table's own occupancy and its
//     probe_loads mean must agree with layout-ab's headline (bucket
//     lines/op ≈ 1 at 75% fill — one cache line per positive lookup).
package bench

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"time"

	"dramhit/internal/dramhit"
	"dramhit/internal/obs"
	"dramhit/internal/table"
	"dramhit/internal/workload"
)

// IntrospectSchema identifies the introspect-ab summary layout
// (BENCH_introspect.json); bump on incompatible change.
const IntrospectSchema = "dramhit-bench-introspect/v1"

func init() {
	register("introspect-ab", func(cfg Config) *Artifact {
		a, _ := RunIntrospectAB(cfg)
		return a
	})
}

// IntrospectSummary is the top-level BENCH_introspect.json document.
type IntrospectSummary struct {
	Schema string `json:"schema"`
	Quick  bool   `json:"quick"`
	// The overhead ladder: best-of-reps Mops per observation mode, and the
	// relative cost of each armed mode over off (positive = slower), as the
	// median of per-round paired ratios. HotKeysMarginalPct isolates the
	// sketch feed itself — hotkeys versus observe, the mode it extends —
	// and carries the ≤3% budget; full introspect adds two clock reads per
	// op for the latency stamps and is a diagnosis mode, reported but not
	// budgeted.
	OffMops               float64 `json:"off_mops"`
	ObserveMops           float64 `json:"observe_mops"`
	HotKeysMops           float64 `json:"hotkeys_mops"`
	IntrospectMops        float64 `json:"introspect_mops"`
	ObserveOverheadPct    float64 `json:"observe_overhead_pct"`
	HotKeysOverheadPct    float64 `json:"hotkeys_overhead_pct"`
	HotKeysMarginalPct    float64 `json:"hotkeys_marginal_pct"`
	IntrospectOverheadPct float64 `json:"introspect_overhead_pct"`
	// The budget cell: the sampled sketch feed timed directly (two-pass
	// subtraction over a precomputed key slice) and that cost as a share of
	// the off-mode per-op time. The mode A/B above is context — whole-rep
	// noise on a shared box exceeds the nanosecond-scale effect — while
	// this pair is deterministic enough to gate on.
	SketchFeedNS         float64 `json:"sketch_feed_ns_per_op"`
	SketchFeedImpliedPct float64 `json:"sketch_feed_implied_pct"`
	// RecallAt16 maps zipf theta (as printed, e.g. "0.99") to the sketch's
	// recall@16 against exact stream counts (acceptance ≥ 0.9 at 0.99).
	RecallAt16 map[string]float64 `json:"recall_at_16"`
	// The heatmap cross-check at 75% fill: the collector's fill gauge, the
	// table's own fill, and the probe_loads distribution mean (≈ layout-ab's
	// bucket lines/op headline).
	HeatmapFill           float64 `json:"heatmap_fill"`
	TableFill             float64 `json:"table_fill"`
	HeatmapProbeLoadsMean float64 `json:"heatmap_probe_loads_mean"`
}

// RunIntrospectAB runs the introspection A/B and returns the rendered
// artifact plus the structured summary (-introspectjson writes the latter).
func RunIntrospectAB(cfg Config) (*Artifact, *IntrospectSummary) {
	a := &Artifact{
		ID:     "introspect-ab",
		Title:  "Introspection overhead, sketch recall, heatmap consistency (real execution)",
		Header: []string{"cell", "value", "detail"},
	}
	s := &IntrospectSummary{Schema: IntrospectSchema, Quick: cfg.Quick}

	size := uint64(1 << 20)
	ops := 1 << 21
	// Best-of-9: the overhead under test is a few nanoseconds per operation
	// while scheduler and frequency noise on a shared box swings whole reps
	// by ±6%, so the ladder leans on extreme-value estimation — enough
	// interleaved tries that every mode's best rep ran on a quiet machine.
	reps := 9
	if cfg.Quick {
		size = 1 << 17
		ops = 1 << 15
		reps = 3
	}

	// Section 1: the overhead ladder. Same stream, three observation modes;
	// best-of-reps per mode so scheduler noise does not masquerade as cost.
	modes := []struct {
		name string
		mk   func() *obs.Registry
	}{
		{"off", func() *obs.Registry { return nil }},
		{"observe", obs.New},
		{"hotkeys", func() *obs.Registry {
			r := obs.New()
			r.EnableHotKeys(0)
			return r
		}},
		{"introspect", func() *obs.Registry {
			r := obs.New()
			r.EnableHotKeys(0)
			r.EnableOpLatency()
			return r
		}},
	}
	// Reps interleave round-robin across modes (off, observe, hotkeys,
	// introspect, off, ...) with a forced GC between tables, so heap growth
	// and clock drift land evenly on every mode instead of taxing whichever
	// block runs last. Each overhead is then the MEDIAN of per-round paired
	// ratios: a mode's rep is compared against the off rep from the same
	// round (adjacent in time, same machine epoch), which cancels the
	// whole-rep frequency swings that a cross-round best-of cannot — the
	// effect under test is a few nanoseconds per op while shared-box noise
	// moves entire reps by ±6%.
	mops := make([]float64, len(modes))
	for i := range mops {
		mops[i] = -1
	}
	rounds := make([][]float64, reps)
	for rep := 0; rep < reps; rep++ {
		rounds[rep] = make([]float64, len(modes))
		for i, m := range modes {
			runtime.GC()
			v := introspectRep(cfg, size, ops, m.mk())
			rounds[rep][i] = v
			if v > mops[i] {
				mops[i] = v
			}
		}
	}
	overhead := func(base, mode int) float64 {
		ratios := make([]float64, 0, reps)
		for _, r := range rounds {
			ratios = append(ratios, (r[base]-r[mode])/r[base]*100)
		}
		sort.Float64s(ratios)
		return ratios[len(ratios)/2]
	}
	s.OffMops, s.ObserveMops, s.HotKeysMops, s.IntrospectMops = mops[0], mops[1], mops[2], mops[3]
	s.ObserveOverheadPct = overhead(0, 1)
	s.HotKeysOverheadPct = overhead(0, 2)
	s.HotKeysMarginalPct = overhead(1, 2)
	s.IntrospectOverheadPct = overhead(0, 3)
	for i, m := range modes {
		a.Rows = append(a.Rows, []string{"mops " + m.name, fmt.Sprintf("%.1f", mops[i]), ""})
	}
	s.SketchFeedNS = introspectFeedNS(cfg, size, ops, reps)
	s.SketchFeedImpliedPct = s.SketchFeedNS / (1e3 / mops[0]) * 100
	a.Rows = append(a.Rows,
		[]string{"overhead observe", fmt.Sprintf("%.2f%%", s.ObserveOverheadPct), "registry + trace sampling vs off"},
		[]string{"overhead hotkeys", fmt.Sprintf("%.2f%%", s.HotKeysOverheadPct), "observe + sketch feed vs off"},
		[]string{"overhead sketch A/B", fmt.Sprintf("%.2f%%", s.HotKeysMarginalPct), "hotkeys vs observe paired median (shared-box noise ±4%)"},
		[]string{"sketch feed ns/op", fmt.Sprintf("%.2f", s.SketchFeedNS), "direct two-pass timing of the sampled feed, best-of-reps"},
		[]string{"overhead sketch direct", fmt.Sprintf("%.2f%%", s.SketchFeedImpliedPct), "feed ns/op over the off-mode per-op time (budget ≤3%)"},
		[]string{"overhead introspect", fmt.Sprintf("%.2f%%", s.IntrospectOverheadPct), "+ per-op latency stamps (two clock reads/op; diagnosis mode)"})

	// Section 2: sketch recall against exact counts. The recall stream is
	// longer than the overhead reps even in quick mode: the table-side feed
	// samples 1 in 1<<obs.SampleShift submissions, and the sketch needs a
	// few hundred samples of the rank-16 key for the ranking to settle.
	recallOps := ops
	if recallOps < 1<<20 {
		recallOps = 1 << 20
	}
	s.RecallAt16 = map[string]float64{}
	for _, theta := range []float64{0.90, 0.99} {
		r := introspectRecall(cfg, size, recallOps, theta)
		key := fmt.Sprintf("%.2f", theta)
		s.RecallAt16[key] = r
		a.Rows = append(a.Rows, []string{"recall@16 zipf " + key, fmt.Sprintf("%.3f", r), "Space-Saving top-16 vs exact (want ≥0.9 at 0.99)"})
	}

	// Section 3: heatmap consistency at 75% fill, bucket layout.
	hfill, tfill, loads := introspectHeatmap(cfg, size)
	s.HeatmapFill, s.TableFill, s.HeatmapProbeLoadsMean = hfill, tfill, loads
	a.Rows = append(a.Rows,
		[]string{"heatmap fill", fmt.Sprintf("%.3f", hfill), fmt.Sprintf("collector gauge; table reports %.3f", tfill)},
		[]string{"heatmap probe_loads mean", fmt.Sprintf("%.3f", loads), "≈ layout-ab bucket lines/op at 75% fill (~1.0)"})

	a.Notes = append(a.Notes,
		fmt.Sprintf("method: %d-slot dramhit table, %d mixed zipf(0.99) get/upsert ops through one handle (batch 16), best-of-%d per mode", size, ops, reps),
		"hotkeys arms EnableHotKeys alone: Submit feeds the filtered Space-Saving sketch through a 1-in-32 weighted sample (obs.SampleShift), one nil check per request when unarmed; the budget cell is 'overhead sketch direct' — the feed timed by two-pass subtraction, which resolves a nanosecond-scale cost the mode A/B cannot",
		"overheads are medians of per-round paired ratios (each armed rep against the off/observe rep adjacent in time), because shared-box frequency noise swings whole reps by more than the effect under test",
		"introspect additionally arms EnableOpLatency, which stamps every request with two wall-clock reads (submit and retire); that cost is inherent to per-op wall time on a sub-100ns pipeline and the mode is meant for bounded diagnosis sessions, not steady state",
		"recall streams draw from the loaded keyset; exact counts are tallied alongside and compared to the registry's merged TopKeys(16)",
		fmt.Sprintf("heatmap cell: bucket layout filled to 75%%, scraped via the registry's /heatmap collector; machine-readable summary lands in BENCH_introspect.json (schema %s)", IntrospectSchema))
	return a, s
}

// introspectRep is one overhead repetition: a mixed 50/50 get/upsert
// zipf(0.99) stream through one handle, reporting Mops.
func introspectRep(cfg Config, size uint64, ops int, reg *obs.Registry) float64 {
	tbl := dramhit.New(dramhit.Config{
		Slots:       size,
		ProbeKernel: cfg.ProbeKernel,
		Observe:     reg,
	})
	h := tbl.NewHandle()
	ks := workload.NewKeyStream(cfg.Seed, size/2, 0.99)
	const batch = 16
	reqs := make([]table.Request, batch)
	resps := make([]table.Response, batch)
	start := time.Now()
	for n := 0; n < ops; n += batch {
		b := batch
		if ops-n < b {
			b = ops - n
		}
		for i := 0; i < b; i++ {
			k := ks.Next()
			if i&1 == 0 {
				reqs[i] = table.Request{Op: table.Get, Key: k, ID: uint64(i)}
			} else {
				reqs[i] = table.Request{Op: table.Upsert, Key: k, Value: 1}
			}
		}
		rem := reqs[:b]
		for len(rem) > 0 {
			nr, _ := h.Submit(rem, resps)
			rem = rem[nr:]
		}
		for {
			if _, done := h.Flush(resps); done {
				break
			}
		}
	}
	return float64(ops) / time.Since(start).Seconds() / 1e6
}

// introspectFeedNS times the sampled sketch feed directly: two passes over
// the same precomputed zipf(0.99) key slice, one consuming keys into a sink
// and one additionally calling OfferSampled, best-of-reps each; the
// difference is the feed's amortized cost per operation. Unlike the mode
// A/B, this isolates a nanosecond-scale effect from whole-rep machine noise
// (both passes run back to back and the subtraction cancels the loop).
func introspectFeedNS(cfg Config, size uint64, ops, reps int) float64 {
	ks := workload.NewKeyStream(cfg.Seed^0x66656564, size/2, 0.99) // "feed"
	keys := make([]uint64, ops)
	for i := range keys {
		keys[i] = ks.Next()
	}
	w := obs.NewTopK(obs.DefaultHotKeyCap)
	var sink uint64
	base, feed := -1.0, -1.0
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		for _, k := range keys {
			sink ^= k
		}
		if v := time.Since(t0).Seconds(); base < 0 || v < base {
			base = v
		}
		t0 = time.Now()
		for _, k := range keys {
			sink ^= k
			w.OfferSampled(k)
		}
		if v := time.Since(t0).Seconds(); feed < 0 || v < feed {
			feed = v
		}
	}
	runtime.KeepAlive(sink)
	ns := (feed - base) / float64(ops) * 1e9
	if ns < 0 {
		ns = 0
	}
	return ns
}

// introspectRecall streams zipf(theta) Gets through an armed handle while
// tallying exact counts, and returns the sketch's recall@16.
func introspectRecall(cfg Config, size uint64, ops int, theta float64) float64 {
	reg := obs.NewWith(0, 1)
	reg.EnableHotKeys(0)
	tbl := dramhit.New(dramhit.Config{Slots: size, Observe: reg})
	h := tbl.NewHandle()
	ks := workload.NewKeyStream(cfg.Seed^0x746f706b, size/2, theta) // "topk"
	exact := map[uint64]uint64{}
	const batch = 16
	reqs := make([]table.Request, batch)
	resps := make([]table.Response, batch)
	for n := 0; n < ops; n += batch {
		b := batch
		if ops-n < b {
			b = ops - n
		}
		for i := 0; i < b; i++ {
			k := ks.Next()
			exact[k]++
			reqs[i] = table.Request{Op: table.Get, Key: k, ID: uint64(i)}
		}
		rem := reqs[:b]
		for len(rem) > 0 {
			nr, _ := h.Submit(rem, resps)
			rem = rem[nr:]
		}
		for {
			if _, done := h.Flush(resps); done {
				break
			}
		}
	}
	const k = 16
	type kc struct {
		key uint64
		n   uint64
	}
	all := make([]kc, 0, len(exact))
	for key, n := range exact {
		all = append(all, kc{key, n})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].n > all[j].n })
	truth := map[uint64]bool{}
	for i := 0; i < k && i < len(all); i++ {
		truth[all[i].key] = true
	}
	hit := 0
	for _, it := range reg.TopKeys(k) {
		if truth[it.Key] {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}

// introspectHeatmap fills a bucket-layout table to 75% through its byte API
// (8-byte keys and values) and cross-checks the registry's heatmap collector
// against the table's own accounting. Returns the collector's fill gauge, the
// table's fill, and the probe_loads mean.
func introspectHeatmap(cfg Config, size uint64) (hfill, tfill, loadsMean float64) {
	reg := obs.NewWith(0, 1)
	tbl := dramhit.New(dramhit.Config{Slots: size, Layout: table.LayoutBucket, Observe: reg})
	h := tbl.NewHandle()
	one := binary.LittleEndian.AppendUint64(nil, 1)
	for _, k := range leKeys(workload.UniqueKeys(cfg.Seed^0x68656174, int(float64(size)*0.75))) { // "heat"
		h.PutBytes(k, one)
	}
	tfill = float64(tbl.Len()) / float64(size)
	for _, hm := range reg.Heatmaps() {
		if hm.Source != "dramhit" {
			continue
		}
		hfill = hm.Gauges["fill"]
		for _, d := range hm.Dists {
			if d.Name == "probe_loads" {
				loadsMean = d.Mean
			}
		}
	}
	return hfill, tfill, loadsMean
}
