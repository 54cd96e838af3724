package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dramhit/internal/obs"
)

// TestRenderTableLatency: a server's snapshot has per-class latency from its
// table's sampled requests. Each class with samples gets a row, and the
// count column says samples; there is no merged "all" row.
func TestRenderTableLatency(t *testing.T) {
	f := &frame{at: time.Now(), snap: obs.Snapshot{
		OpLatency: map[string]obs.HistSnapshot{
			"get_hit": {Count: 40, P50: 300, P99: 900, P999: 1200, Max: 1500, Mean: 350},
			"put":     {Count: 3, P50: 500, P99: 700, P999: 700, Max: 700, Mean: 520},
		},
	}}
	path := filepath.Join(t.TempDir(), "frame.txt")
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	render(out, "http://test", f, nil, 10)
	out.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(b)
	for _, want := range []string{"samples", "get_hit", "put"} {
		if !strings.Contains(text, want) {
			t.Errorf("frame has no %q:\n%s", want, text)
		}
	}
	for _, absent := range []string{"get_miss", "\nall "} {
		if strings.Contains(text, absent) {
			t.Errorf("frame has a %q row with no samples:\n%s", absent, text)
		}
	}
}
