// Command dramhit-top is a live terminal view over a running table's
// observability endpoint (loadgen -metrics, dramhit-bench -metrics, or any
// process serving dramhit.ServeObservability):
//
//	dramhit-top -addr localhost:8090
//	dramhit-top -addr localhost:8090 -interval 1s -k 20
//	dramhit-top -addr localhost:8090 -once
//
// Each frame scrapes the registry snapshot from /debug/vars and the
// structural heatmaps from /heatmap and renders: operation rates (derived
// from counter deltas between frames), the merged and per-op-class latency
// summaries, the hottest keys from the Space-Saving sketch, and one
// occupancy sparkline per heatmap source. -once prints a single frame and
// exits (scriptable; no screen clearing), which is also how CI smokes the
// endpoint.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"dramhit/internal/obs"
)

func main() {
	addr := flag.String("addr", "localhost:8090", "observability endpoint host:port")
	interval := flag.Duration("interval", 2*time.Second, "refresh interval")
	once := flag.Bool("once", false, "print one frame and exit (no screen clearing)")
	topk := flag.Int("k", 10, "hot keys to show")
	flag.Parse()

	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	client := &http.Client{Timeout: 5 * time.Second}

	var prev *frame
	for {
		f, err := scrape(client, base)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dramhit-top: %v\n", err)
			os.Exit(1)
		}
		if !*once {
			fmt.Print("\x1b[H\x1b[2J") // cursor home + clear
		}
		render(os.Stdout, base, f, prev, *topk)
		if *once {
			return
		}
		prev = f
		time.Sleep(*interval)
	}
}

// frame is one scrape: the registry snapshot, the heatmaps, and when it
// was taken (rates are computed from deltas between consecutive frames).
type frame struct {
	at   time.Time
	snap obs.Snapshot
	maps []obs.Heatmap
}

func scrape(client *http.Client, base string) (*frame, error) {
	f := &frame{at: time.Now()}

	// /debug/vars is the expvar surface; the registry snapshot is published
	// under the dramhit_obs key.
	var vars struct {
		Obs obs.Snapshot `json:"dramhit_obs"`
	}
	if err := getJSON(client, base+"/debug/vars", &vars); err != nil {
		return nil, err
	}
	f.snap = vars.Obs

	var hm struct {
		Heatmaps []obs.Heatmap `json:"heatmaps"`
	}
	if err := getJSON(client, base+"/heatmap", &hm); err != nil {
		return nil, err
	}
	f.maps = hm.Heatmaps
	return f, nil
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// opCounters are the totals rendered in the rate table, in display order.
var opCounters = []string{"gets", "puts", "upserts", "deletes", "hits",
	"combined_upserts", "queue_sends"}

func render(w *os.File, base string, f, prev *frame, topk int) {
	s := &f.snap
	fmt.Fprintf(w, "dramhit-top  %s  up %s  workers %d  trace events %d\n",
		base, (time.Duration(s.UptimeSeconds * float64(time.Second))).Round(time.Second),
		len(s.Workers), s.TraceEvents)
	fmt.Fprintln(w, strings.Repeat("─", 78))

	// Rates: delta over the previous frame when there is one.
	fmt.Fprintf(w, "%-18s %14s %12s\n", "counter", "total", "per sec")
	for _, name := range opCounters {
		total := s.Totals[name]
		if total == 0 {
			continue
		}
		rate := ""
		if prev != nil {
			dt := f.at.Sub(prev.at).Seconds()
			if dt > 0 {
				rate = fmt.Sprintf("%.0f", float64(total-prev.snap.Totals[name])/dt)
			}
		}
		fmt.Fprintf(w, "%-18s %14d %12s\n", name, total, rate)
	}

	if s.Latency.Count > 0 {
		fmt.Fprintf(w, "\nlatency ns   %10s %8s %8s %8s %8s %8s\n", "count", "p50", "p99", "p99.9", "max", "mean")
		fmt.Fprintf(w, "%-12s %10d %8.0f %8.0f %8.0f %8.0f %8.0f\n", "all",
			s.Latency.Count, s.Latency.P50, s.Latency.P99, s.Latency.P999, s.Latency.Max, s.Latency.Mean)
		for _, cls := range obs.OpClassNames {
			h, ok := s.OpLatency[cls]
			if !ok || h.Count == 0 {
				continue
			}
			fmt.Fprintf(w, "%-12s %10d %8.0f %8.0f %8.0f %8.0f %8.0f\n", cls,
				h.Count, h.P50, h.P99, h.P999, h.Max, h.Mean)
		}
	}

	if len(s.HotKeys) > 0 {
		fmt.Fprintf(w, "\nhot keys (Space-Saving; count overestimates by ≤err)\n")
		var sum uint64
		for _, it := range s.HotKeys {
			sum += it.Count
		}
		n := topk
		if n > len(s.HotKeys) {
			n = len(s.HotKeys)
		}
		for i := 0; i < n; i++ {
			it := s.HotKeys[i]
			share := ""
			if sum > 0 {
				share = fmt.Sprintf("%5.1f%% of top", float64(it.Count)*100/float64(sum))
			}
			fmt.Fprintf(w, "  #%-3d %#018x  count %-10d err %-8d %s\n", i+1, it.Key, it.Count, it.Err, share)
		}
	}

	if len(f.maps) > 0 {
		fmt.Fprintf(w, "\noccupancy by source (region fill 0–100%%)\n")
		for _, h := range f.maps {
			fill := h.Gauges["fill"]
			fmt.Fprintf(w, "  %-10s %-7s fill %5.1f%%  %s\n", h.Source, h.Kind, fill*100, spark(h.Regions, 48))
			var parts []string
			for _, d := range h.Dists {
				if d.Count > 0 {
					parts = append(parts, fmt.Sprintf("%s mean=%.2f max=%d", d.Name, d.Mean, d.Max))
				}
			}
			if len(parts) > 0 {
				fmt.Fprintf(w, "  %-10s %s\n", "", strings.Join(parts, "  "))
			}
		}
	}

	if len(s.Sources) > 0 {
		names := make([]string, 0, len(s.Sources))
		for name := range s.Sources {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "\ntable gauges\n")
		for _, name := range names {
			src := s.Sources[name]
			keys := make([]string, 0, len(src))
			for k := range src {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			var parts []string
			for _, k := range keys {
				parts = append(parts, fmt.Sprintf("%s=%g", k, src[k]))
			}
			line := strings.Join(parts, " ")
			if len(line) > 66 {
				line = line[:66] + "…"
			}
			fmt.Fprintf(w, "  %-10s %s\n", name, line)
		}
	}
}

// sparkBlocks are the eight-level bar glyphs of the occupancy sparkline.
var sparkBlocks = []rune("▁▂▃▄▅▆▇█")

// spark renders fills (each in [0,1]) as a width-cell sparkline, averaging
// neighbouring regions down when there are more regions than cells.
func spark(fills []float64, width int) string {
	if len(fills) == 0 {
		return ""
	}
	if width > len(fills) {
		width = len(fills)
	}
	out := make([]rune, width)
	for c := 0; c < width; c++ {
		lo, hi := c*len(fills)/width, (c+1)*len(fills)/width
		if hi == lo {
			hi = lo + 1
		}
		var sum float64
		for i := lo; i < hi; i++ {
			sum += fills[i]
		}
		v := sum / float64(hi-lo)
		idx := int(v * float64(len(sparkBlocks)))
		if idx >= len(sparkBlocks) {
			idx = len(sparkBlocks) - 1
		}
		if idx < 0 {
			idx = 0
		}
		out[c] = sparkBlocks[idx]
	}
	return string(out)
}
