package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dramhit/internal/table"
)

// parseN parses the /trace ?n= parameter; 0 means "keep all".
func parseN(s string) int {
	if s == "" {
		return 0
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// FilterEvents applies the /trace query filters: op selects events by
// opcode name ("get", "put", "upsert", "delete" — lifecycle events only) or
// by event-kind name ("resize", "submit", ...); n > 0
// keeps only the last n events after filtering. The input slice is not
// modified; an empty result is a non-nil empty slice.
func FilterEvents(evs []Event, op string, n int) []Event {
	out := evs
	if op != "" {
		out = make([]Event, 0, len(evs))
		for _, ev := range evs {
			lifecycle := ev.Kind >= EvSubmit && ev.Kind <= EvComplete
			if lifecycle && table.Op(ev.Op).String() == op {
				out = append(out, ev)
				continue
			}
			if ev.Kind.String() == op {
				out = append(out, ev)
			}
		}
	}
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	if out == nil {
		out = []Event{}
	}
	return out
}

// Handler returns the observability HTTP surface for r:
//
//	/metrics        Prometheus text exposition format
//	/trace          sampled request-lifecycle events as JSON; ?n= keeps the
//	                last N events, ?op= filters by opcode ("get", "put",
//	                "upsert", "delete") or event kind ("resize"),
//	                ?format=chrome renders Chrome trace-event
//	                JSON for chrome://tracing / Perfetto
//	/heatmap        structural layout scrape (fill regions, probe-depth /
//	                stash-chain / segment-utilization distributions) as
//	                JSON; ?source= selects one collector
//	/debug/vars     expvar (includes the registry snapshot as dramhit_obs)
//	/debug/pprof/   the standard Go profiler endpoints
//	/               a short index of the above
func Handler(r *Registry) http.Handler {
	publishExpvar(r)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteMetrics(w, r)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, req *http.Request) {
		var evs []Event
		if tr := r.Trace(); tr != nil {
			evs = tr.Snapshot()
		}
		evs = FilterEvents(evs, req.URL.Query().Get("op"), parseN(req.URL.Query().Get("n")))
		if req.URL.Query().Get("format") == "chrome" {
			w.Header().Set("Content-Type", "application/json")
			WriteChromeTrace(w, evs)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(evs)
	})
	mux.HandleFunc("/heatmap", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		maps := r.Heatmaps()
		if want := req.URL.Query().Get("source"); want != "" {
			kept := maps[:0]
			for _, h := range maps {
				if h.Source == want {
					kept = append(kept, h)
				}
			}
			maps = kept
		}
		if maps == nil {
			maps = []Heatmap{}
		}
		json.NewEncoder(w).Encode(struct {
			UptimeSeconds float64   `json:"uptime_seconds"`
			Heatmaps      []Heatmap `json:"heatmaps"`
		}{time.Since(r.start).Seconds(), maps})
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprintln(w, "dramhit observability: /metrics /trace /heatmap /debug/vars /debug/pprof/")
	})
	return mux
}

// Serve starts the observability endpoint on addr (e.g. ":8090") and
// returns the running server; Close it to stop. The listener is bound
// synchronously so a caller that returns without error is scrapeable.
func Serve(addr string, r *Registry) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	// Addr reflects the bound listener (resolves ":0" and bare-port forms)
	// so callers can print a scrapeable URL.
	srv := &http.Server{Addr: ln.Addr().String(), Handler: Handler(r)}
	go srv.Serve(ln)
	return srv, nil
}

// expvar.Publish panics on duplicate names, so the registry snapshot is
// published once under a package-level indirection that always reflects the
// most recently served registry.
var (
	expvarReg  atomic.Pointer[Registry]
	expvarOnce sync.Once
)

func publishExpvar(r *Registry) {
	expvarReg.Store(r)
	expvarOnce.Do(func() {
		expvar.Publish("dramhit_obs", expvar.Func(func() any {
			reg := expvarReg.Load()
			if reg == nil {
				return nil
			}
			return reg.TakeSnapshot()
		}))
	})
}

// promBounds are the cumulative `le` bucket bounds of the latency
// histogram's Prometheus rendering. Each is of the form 2^k-1, aligning
// exactly with the log-bucket octave boundaries, so the cumulative counts
// are exact (no bucket is split by a bound).
var promBounds = func() []uint64 {
	var b []uint64
	for k := 6; k <= 34; k += 2 { // 63ns .. ~17s
		b = append(b, uint64(1)<<k-1)
	}
	return b
}()

// CounterHelp documents each counter family for the /metrics # HELP line.
var CounterHelp = [NumCounters]string{
	"Completed Get operations",
	"Completed Put operations",
	"Completed Upsert operations",
	"Completed Delete operations",
	"Gets that found their key and Deletes that removed one",
	"Puts/Upserts rejected because the table was full",
	"Probe line crossings (walked into the prefetched pair's second line, or re-enqueued behind a fresh prefetch)",
	"Cache lines touched by probes",
	"Line visits whose key lanes were consulted",
	"Upserts folded into a held same-key upsert on the partitioned write path",
	"Atomic RMW/store attempts against slot words",
	"Delegated messages sent on the partitioned write path",
	"Chain-node traversals",
}

// GaugeHelp documents each gauge family for the /metrics # HELP line.
var GaugeHelp = [NumGauges]string{
	"Prefetch-window occupancy at the last publish",
	"Maximum prefetch-window occupancy observed",
	"Delegation-queue backlog at the last publish",
}

// writeHistogram renders one histogram series with the shared
// octave-aligned cumulative bounds; labels is the rendered label set
// (without braces) shared by every line of the series.
func writeHistogram(w io.Writer, name string, h *Histogram, labels string) {
	n := h.Count()
	var cum uint64
	for _, le := range promBounds {
		cum = h.CountAtOrBelow(le)
		fmt.Fprintf(w, "%s_bucket{%s,le=\"%d\"} %d\n", name, labels, le, cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, labels, n)
	fmt.Fprintf(w, "%s_sum{%s} %d\n", name, labels, h.Sum())
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, n)
}

// WriteMetrics renders r in the Prometheus text exposition format. Every
// family carries # HELP and # TYPE lines (TestMetricsStrictFormat parses the
// output under a strict exposition-format grammar).
func WriteMetrics(w io.Writer, r *Registry) {
	workers := r.Workers()

	for i := 0; i < NumCounters; i++ {
		any := false
		for _, wk := range workers {
			if wk.Counter(i) != 0 {
				any = true
				break
			}
		}
		if !any {
			continue
		}
		name := "dramhit_" + CounterNames[i] + "_total"
		fmt.Fprintf(w, "# HELP %s %s\n", name, CounterHelp[i])
		fmt.Fprintf(w, "# TYPE %s counter\n", name)
		for _, wk := range workers {
			if v := wk.Counter(i); v != 0 {
				fmt.Fprintf(w, "%s{worker=%q} %d\n", name, wk.Name(), v)
			}
		}
	}

	for g := 0; g < NumGauges; g++ {
		any := false
		for _, wk := range workers {
			if wk.Gauge(g) != 0 {
				any = true
				break
			}
		}
		if !any {
			continue
		}
		name := "dramhit_" + GaugeNames[g]
		fmt.Fprintf(w, "# HELP %s %s\n", name, GaugeHelp[g])
		fmt.Fprintf(w, "# TYPE %s gauge\n", name)
		for _, wk := range workers {
			fmt.Fprintf(w, "%s{worker=%q} %d\n", name, wk.Name(), wk.Gauge(g))
		}
	}

	// Per-op-class latency: one series per (worker, op class) with samples.
	headed := false
	for _, wk := range workers {
		for c := 0; c < NumOpClasses; c++ {
			if wk.Op[c].Count() == 0 {
				continue
			}
			if !headed {
				fmt.Fprintf(w, "# HELP dramhit_op_latency_ns Per-op-class operation latency (op label: kind_outcome)\n")
				fmt.Fprintf(w, "# TYPE dramhit_op_latency_ns histogram\n")
				headed = true
			}
			writeHistogram(w, "dramhit_op_latency_ns", &wk.Op[c],
				fmt.Sprintf("worker=%q,op=%q", wk.Name(), OpClassNames[c]))
		}
	}

	// Hot keys: the merged Space-Saving ranking, one sample per rank.
	if hot := r.TopKeys(16); len(hot) > 0 {
		fmt.Fprintf(w, "# HELP dramhit_hotkey_count Estimated occurrence count of the rank-N hottest key (Space-Saving sketch; overestimates by at most the err label)\n")
		fmt.Fprintf(w, "# TYPE dramhit_hotkey_count gauge\n")
		for rank, it := range hot {
			fmt.Fprintf(w, "dramhit_hotkey_count{rank=\"%d\",key=\"%d\",err=\"%d\"} %d\n",
				rank+1, it.Key, it.Err, it.Count)
		}
	}

	// Pull sources render as one labelled gauge family.
	srcs := r.Sources()
	if len(srcs) > 0 {
		fmt.Fprintf(w, "# HELP dramhit_pull Pull-collected table-level metrics (fill, live entries, window) by source\n")
		fmt.Fprintf(w, "# TYPE dramhit_pull gauge\n")
		for _, src := range srcs {
			m := src.Collect()
			keys := make([]string, 0, len(m))
			for k := range m {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(w, "dramhit_pull{source=%q,name=%q} %v\n",
					src.Name, sanitizeLabel(k), m[k])
			}
		}
	}

	if tr := r.Trace(); tr != nil {
		fmt.Fprintf(w, "# HELP dramhit_trace_events_total Lifecycle trace events recorded since start\n")
		fmt.Fprintf(w, "# TYPE dramhit_trace_events_total counter\n")
		fmt.Fprintf(w, "dramhit_trace_events_total %d\n", tr.Recorded())
	}
	fmt.Fprintf(w, "# HELP dramhit_uptime_seconds Seconds since the registry was created\n")
	fmt.Fprintf(w, "# TYPE dramhit_uptime_seconds gauge\n")
	fmt.Fprintf(w, "dramhit_uptime_seconds %f\n", time.Since(r.start).Seconds())
}

func sanitizeLabel(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		}
		return '_'
	}, s)
}
