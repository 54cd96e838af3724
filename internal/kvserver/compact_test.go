package kvserver

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"dramhit/internal/arena"
	idramhit "dramhit/internal/dramhit"
	"dramhit/internal/obs"
	"dramhit/internal/slotarr"
	"dramhit/internal/table"
)

// withSegments makes the servers the test starts store their records in an
// arena of seg-byte segments: one-byte segments fill the directory fast, small
// ones make compaction passes frequent. An observed table registers its
// heatmap as New's does (a view registers no source of its own).
func withSegments(t *testing.T, seg int) {
	old := newTable
	newTable = func(slots uint64, reg *obs.Registry) *idramhit.Table {
		bt := slotarr.NewBucketTable(slotarr.BucketConfig{
			Buckets: slots / slotarr.BucketLanes, Arena: arena.New(arena.WithSegmentBytes(seg))})
		tb := idramhit.NewView(idramhit.Config{Slots: slots, Layout: table.LayoutBucket, Observe: reg},
			idramhit.Regions{Buckets: []*slotarr.BucketTable{bt}, Worker: "dramhit-h"})
		if reg != nil {
			reg.AddHeatmapSource("dramhit", tb.Heatmap)
		}
		return tb
	}
	t.Cleanup(func() { newTable = old })
}

// pullSource returns the registry's pull source of that name.
func pullSource(t *testing.T, reg *obs.Registry, name string) func() map[string]float64 {
	t.Helper()
	for _, s := range reg.Sources() {
		if s.Name == name {
			return s.Collect
		}
	}
	t.Fatalf("no %q pull source", name)
	return nil
}

// TestCompactionUnderSetChurn: memcached SETs overwrite 4096 keys ten times
// over in random order, through a server whose arena has 4 KiB segments. The
// compaction counters on the "server" source rise, and after every wire batch,
// once the pass it started has ended, arena_bytes_used is at most 4/3 of the
// live bytes plus 64 segments. Over the run the passes copy at most 3 bytes
// per byte they free: moved ≤ 3 × (scanned − moved). In the "scraped" input a
// goroutine renders /metrics, the registry snapshot and the heatmaps in a loop
// meanwhile, so that scrapes race the handles' publishes and the passes' moves
// (run it under -race).
func TestCompactionUnderSetChurn(t *testing.T) {
	for _, name := range []string{"plain", "scraped"} {
		t.Run(name, func(t *testing.T) { setChurn(t, name == "scraped") })
	}
}

func setChurn(t *testing.T, scraped bool) {
	const seg, keys, valLen, batch = 4 << 10, 4096, 100, 64
	withSegments(t, seg)
	reg := obs.New()
	srv := startServer(t, func(c *Config) { c.Obs = reg })
	src := pullSource(t, reg, "server")
	if scraped {
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				obs.WriteMetrics(io.Discard, reg)
				reg.TakeSnapshot()
				reg.Heatmaps()
			}
		}()
		defer func() { close(stop); <-done }()
	}
	c, err := net.Dial("tcp", srv.McAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	br := bufio.NewReader(c)
	rng := rand.New(rand.NewSource(7))
	val := bytes.Repeat([]byte{'v'}, valLen)
	// A record is uvarint(8) uvarint(104) "key-nnnn" flags+value: 114 bytes.
	const live = keys * (1 + 1 + 8 + 4 + valLen)
	for k := 0; k < keys; k++ { // every key present, so live is exact
		fmt.Fprintf(c, "set key-%04d 0 0 %d noreply\r\n%s\r\n", k, valLen, val)
	}
	var wire []byte
	for b := 0; b < 10*keys/batch; b++ {
		wire = wire[:0]
		for i := 0; i < batch; i++ {
			wire = fmt.Appendf(wire, "set key-%04d 0 0 %d\r\n%s\r\n", rng.Intn(keys), valLen, val)
		}
		if _, err := c.Write(wire); err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		for i := 0; i < batch; i++ {
			if line, err := br.ReadString('\n'); err != nil || line != "STORED\r\n" {
				t.Fatalf("batch %d reply %d: (%q, %v)", b, i, line, err)
			}
		}
		srv.Table().Bucket().Arena().WaitPass()
		if used := src()["arena_bytes_used"]; 3*used > 4*live+3*64*seg {
			t.Fatalf("batch %d: arena_bytes_used %v, live %d bytes", b, used, live)
		}
	}
	srv.Table().Bucket().Arena().WaitPass()
	m := src()
	for _, name := range []string{"arena_compact_passes", "arena_compact_moved_bytes",
		"arena_compact_scanned_bytes", "arena_compact_unlinked", "arena_compact_chunk_max_us",
		"arena_compact_pass_max_us"} {
		if m[name] <= 0 {
			t.Errorf("%s = %v after the churn, want > 0", name, m[name])
		}
	}
	if moved, scanned := m["arena_compact_moved_bytes"], m["arena_compact_scanned_bytes"]; moved > 3*(scanned-moved) {
		t.Errorf("passes moved %v of the %v victim bytes they scanned: over 3 bytes per byte freed", moved, scanned)
	}
	if n := srv.Table().Len(); n != keys {
		t.Errorf("table holds %d entries, want %d", n, keys)
	}
}
