package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

func newTestRegistry() *Registry {
	r := NewWith(64, 1)
	w := r.Worker("w0")
	w.Add(CGets, 100)
	w.Add(CHits, 90)
	w.SetGauge(GWindowOcc, 8)
	w.Op[OpGetHit].Record(150)
	w.Op[OpGetHit].Record(900)
	r.AddSource("table", func() map[string]float64 {
		return map[string]float64{"fill factor": 0.42}
	})
	tr := r.Trace()
	id := tr.NextID()
	tr.Record(id, EvSubmit, 0, 7, 0)
	tr.Record(id, EvComplete, 0, 7, 1)
	return r
}

func TestMetricsEndpoint(t *testing.T) {
	h := Handler(newTestRegistry())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`dramhit_gets_total{worker="w0"} 100`,
		`dramhit_hits_total{worker="w0"} 90`,
		`dramhit_window_occupancy{worker="w0"} 8`,
		`dramhit_op_latency_ns_count{worker="w0",op="get_hit"} 2`,
		`dramhit_op_latency_ns_bucket{worker="w0",op="get_hit",le="+Inf"} 2`,
		`dramhit_pull{source="table",name="fill_factor"} 0.42`,
		`dramhit_trace_events_total 2`,
		`dramhit_uptime_seconds`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
	// The cumulative histogram must be monotone and end at the count.
	var prev int64 = -1
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "dramhit_op_latency_ns_bucket") || strings.Contains(line, "+Inf") {
			continue
		}
		var v int64
		if _, err := fmtSscan(line, &v); err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("non-monotone cumulative bucket: %q after %d", line, prev)
		}
		prev = v
	}
}

// fmtSscan pulls the trailing integer off a Prometheus sample line.
func fmtSscan(line string, v *int64) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	var err error
	*v, err = jsonNumber(line[i+1:])
	return 1, err
}

func jsonNumber(s string) (int64, error) {
	var n int64
	err := json.Unmarshal([]byte(s), &n)
	return n, err
}

func TestTraceEndpoint(t *testing.T) {
	h := Handler(newTestRegistry())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var evs []Event
	if err := json.Unmarshal(rec.Body.Bytes(), &evs); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	if len(evs) != 2 || evs[0].Kind != EvSubmit || evs[1].Kind != EvComplete {
		t.Fatalf("trace events: %+v", evs)
	}
}

func TestTraceEndpointDisabled(t *testing.T) {
	h := Handler(NewWith(0, 1))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	if got := strings.TrimSpace(rec.Body.String()); got != "[]" {
		t.Fatalf("disabled trace body = %q, want []", got)
	}
}

func TestExpvarEndpoint(t *testing.T) {
	h := Handler(newTestRegistry())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatalf("expvar JSON: %v", err)
	}
	raw, ok := vars["dramhit_obs"]
	if !ok {
		t.Fatal("expvar missing dramhit_obs")
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("dramhit_obs: %v", err)
	}
	if snap.Totals["gets"] != 100 {
		t.Fatalf("expvar snapshot gets = %d", snap.Totals["gets"])
	}
}

func TestPprofIndex(t *testing.T) {
	h := Handler(newTestRegistry())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "goroutine") {
		t.Fatal("pprof index missing profiles")
	}
}

func TestIndexAndNotFound(t *testing.T) {
	h := Handler(newTestRegistry())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "/metrics") {
		t.Fatalf("index: %d %q", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/nope", nil))
	if rec.Code != 404 {
		t.Fatalf("unknown path status %d, want 404", rec.Code)
	}
}

func TestServeAndClose(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", newTestRegistry())
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	srv.Close()
}
