package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dramhit/internal/table"
)

// populatedRegistry builds a registry exercising every metrics family:
// counters, gauges, per-op latency, hot keys, pull sources,
// and the trace ring.
func populatedRegistry() *Registry {
	r := NewWith(256, 1)
	for _, name := range []string{"w0", "w-1"} {
		w := r.HotWorker(name)
		for i := 0; i < NumCounters; i++ {
			w.Add(i, uint64(i+1))
		}
		for g := 0; g < NumGauges; g++ {
			w.SetGauge(g, uint64(g+7))
		}
		for i := 0; i < 100; i++ {
			w.Op[OpGetHit].Record(uint64(50 + i))
			w.Op[OpUpsert].Record(uint64(500 + i))
			w.Hot.Offer(uint64(i % 10))
		}
	}
	r.AddSource("tbl", func() map[string]float64 {
		return map[string]float64{"fill": 0.75, "live entries": 123}
	})
	tr := r.Trace()
	id := tr.NextID()
	tr.Record(id, EvSubmit, uint8(table.Get), 42, 0)
	tr.Record(id, EvProbe, uint8(table.Get), 42, 1)
	tr.Record(id, EvComplete, uint8(table.Get), 42, 1)
	tr.Record(7, EvResize, ResizeInstall, 8, 0)
	tr.Record(7, EvResize, ResizeChunk, 3, 500)
	tr.Record(7, EvResize, ResizeSwap, 0, 1000)
	return r
}

// TestMetricsStrictFormat: every family in /metrics carries # HELP and
// # TYPE and the whole document parses under parseProm's strict grammar —
// the satellite guard against scrape drift as new series land.
func TestMetricsStrictFormat(t *testing.T) {
	var buf bytes.Buffer
	WriteMetrics(&buf, populatedRegistry())
	fams, err := parseProm(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("strict parse failed: %v\n%s", err, buf.String())
	}
	for _, f := range fams {
		if f.Type == "" {
			t.Errorf("family %q has no # TYPE", f.Name)
		}
		if f.Help == "" {
			t.Errorf("family %q has no # HELP", f.Name)
		}
		if len(f.Samples) == 0 {
			t.Errorf("family %q declared without samples", f.Name)
		}
	}
	for _, want := range []string{
		"dramhit_gets_total", "dramhit_window_occupancy",
		"dramhit_op_latency_ns",
		"dramhit_hotkey_count", "dramhit_pull",
		"dramhit_trace_events_total", "dramhit_uptime_seconds",
	} {
		if findFamily(fams, want) == nil {
			t.Errorf("family %q missing from /metrics", want)
		}
	}
	// Per-op series carry the op label and consistent bucket/count sums.
	oplat := findFamily(fams, "dramhit_op_latency_ns")
	ops := map[string]bool{}
	for _, s := range oplat.Samples {
		ops[s.Labels["op"]] = true
	}
	if !ops["get_hit"] || !ops["upsert"] {
		t.Errorf("op label values = %v", ops)
	}
}

// TestTraceFilters: ?op= and ?n= narrow the ring dump.
func TestTraceFilters(t *testing.T) {
	r := populatedRegistry()
	evs := r.Trace().Snapshot()

	gets := FilterEvents(evs, "get", 0)
	if len(gets) != 3 {
		t.Fatalf("op=get kept %d events, want 3", len(gets))
	}
	for _, ev := range gets {
		if table.Op(ev.Op) != table.Get {
			t.Fatalf("op=get kept %+v", ev)
		}
	}
	if n := len(FilterEvents(evs, "resize", 0)); n != 3 {
		t.Fatalf("op=resize kept %d, want 3", n)
	}
	last2 := FilterEvents(evs, "", 2)
	if len(last2) != 2 || last2[0].Op != ResizeChunk || last2[1].Arg != 1000 {
		t.Fatalf("n=2 kept %+v", last2)
	}
	if got := FilterEvents(evs, "get", 1); len(got) != 1 || got[0].Kind != EvComplete {
		t.Fatalf("op=get&n=1 kept %+v", got)
	}
	if got := FilterEvents(nil, "", 0); got == nil || len(got) != 0 {
		t.Fatalf("empty filter result = %#v", got)
	}
}

// TestChromeTrace: the flight-recorder export is valid Chrome trace-event
// JSON with lifecycle and migration spans.
func TestChromeTrace(t *testing.T) {
	r := populatedRegistry()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r.Trace().Snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			ID   string         `json:"id"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	phases := map[string][]string{}
	for _, ev := range doc.TraceEvents {
		if ev.TS < 0 {
			t.Fatalf("negative rebased timestamp: %+v", ev)
		}
		phases[ev.Cat+"/"+ev.Name] = append(phases[ev.Cat+"/"+ev.Name], ev.Ph)
	}
	if got := strings.Join(phases["request/get"], ""); got != "bne" {
		t.Fatalf("get lifecycle phases = %q, want bne", got)
	}
	if got := strings.Join(phases["migration/resize"], ""); got != "bne" {
		t.Fatalf("resize span phases = %q, want bne", got)
	}
}

// TestHeatmapRegistry: collectors register last-wins, results carry the
// source name, and DistBuilder summarizes exactly.
func TestHeatmapRegistry(t *testing.T) {
	r := NewWith(0, 1)
	r.AddHeatmapSource("t", func() Heatmap {
		return Heatmap{Kind: "flat", Regions: []float64{0.1}}
	})
	r.AddHeatmapSource("t", func() Heatmap {
		b := DistBuilder{}
		b.Add(1)
		b.Add(1)
		b.Add(3)
		return Heatmap{
			Kind:    "flat",
			Regions: []float64{0.5, 0.25},
			Dists:   []HeatDist{b.Build("probe_depth")},
			Gauges:  map[string]float64{"fill": 0.75},
		}
	})
	maps := r.Heatmaps()
	if len(maps) != 1 {
		t.Fatalf("heatmaps = %d, want 1 (last-wins)", len(maps))
	}
	h := maps[0]
	if h.Source != "t" || h.Kind != "flat" || len(h.Regions) != 2 {
		t.Fatalf("heatmap = %+v", h)
	}
	d := h.Dists[0]
	if d.Count != 3 || d.Max != 3 || d.Mean != (1+1+3)/3.0 {
		t.Fatalf("dist = %+v", d)
	}
	if len(d.Points) != 2 || d.Points[0].Value != 1 || d.Points[0].Count != 2 {
		t.Fatalf("points = %+v", d.Points)
	}
	if _, err := json.Marshal(h); err != nil {
		t.Fatalf("heatmap not JSON-encodable: %v", err)
	}
}
