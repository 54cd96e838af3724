// YCSB-style real-execution benchmark and the observability-overhead A/B.
//
// The ycsb experiment drives the actual Go tables (not the simulated
// machine) through the two YCSB core workloads the paper reports against
// (§4.3): workload C (100% reads) and workload A (50% reads / 50% updates),
// both zipf(0.99) over the loaded keyspace. Latency is recorded into the
// observability layer's log-bucketed histograms (one per worker, merged for
// the summary), so the benchmark is also an end-to-end exercise of
// internal/obs; throughput and percentiles are exported machine-readably
// (RunYCSB → YCSBSummary → BENCH_ycsb.json).
package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"dramhit/internal/dramhit"
	"dramhit/internal/folklore"
	"dramhit/internal/obs"
	"dramhit/internal/table"
	"dramhit/internal/workload"
)

func init() {
	register("ycsb", func(cfg Config) *Artifact {
		a, _ := RunYCSB(cfg)
		return a
	})
	register("obs-ab", func(cfg Config) *Artifact {
		a, _ := RunObsAB(cfg)
		return a
	})
}

// ycsbWorkload is one YCSB core-workload shape.
type ycsbWorkload struct {
	name     string
	readProb float64
}

var ycsbWorkloads = []ycsbWorkload{
	{"A", 0.5}, // 50% reads, 50% upserts
	{"C", 1.0}, // read-only
}

const ycsbTheta = 0.99 // YCSB's default zipfian constant

// RunYCSB runs the YCSB benchmark matrix (workload × table) and returns
// both the text artifact and the machine-readable summary.
func RunYCSB(cfg Config) (*Artifact, *YCSBSummary) {
	a := &Artifact{
		ID:     "ycsb",
		Title:  "YCSB A/C on the real tables (zipf 0.99)",
		Header: []string{"workload", "table", "workers", "Mops", "p50 ns", "p99 ns", "p999 ns", "mean ns"},
	}
	slots := uint64(1 << 20)
	opsPerWorker := 1 << 20
	workers := 4
	if cfg.Quick {
		slots = 1 << 16
		opsPerWorker = 1 << 13
		workers = 2
	}
	records := int(slots / 2)

	sum := &YCSBSummary{Schema: YCSBSchema, Quick: cfg.Quick}
	for _, w := range ycsbWorkloads {
		for _, tbl := range []string{"dramhit", "folklore"} {
			res := ycsbRun(cfg, tbl, w, slots, records, opsPerWorker, workers)
			sum.Runs = append(sum.Runs, res)
			lat := res.LatencyNS
			a.Rows = append(a.Rows, []string{
				w.name, tbl, fmt.Sprintf("%d", workers),
				fmt.Sprintf("%.1f", res.Mops),
				fmt.Sprintf("%.0f", lat.P50),
				fmt.Sprintf("%.0f", lat.P99),
				fmt.Sprintf("%.0f", lat.P999),
				fmt.Sprintf("%.0f", lat.Mean),
			})
		}
	}
	a.Notes = append(a.Notes,
		fmt.Sprintf("method: %d-slot tables loaded to %d records, then %d workers × %d zipf(%.2f) ops; workload A is 50/50 read/upsert, C is read-only", slots, records, workers, opsPerWorker, ycsbTheta),
		"each worker runs an untimed warmup ramp before a shared start gate, so first-touch page faults never land in the latency tail (warmup_ops in the summary)",
		"latency is per-op wall time at batch-16 granularity, recorded into internal/obs log-bucketed histograms (≤1/32 relative error) and merged across workers",
		"dramhit pipelines batches through per-worker handles (prefetch window 16); folklore executes each op synchronously — the same interface gap the paper's Figure 6 measures",
		fmt.Sprintf("the machine-readable summary lands in BENCH_ycsb.json (schema %s)", YCSBSchema))
	return a, sum
}

// ycsbWarmupOps sizes the untimed per-worker ramp: enough batches to fault
// in the worker's slice of the table, its handle ring, and its histogram
// before the clock starts, without materially extending the run.
func ycsbWarmupOps(opsPerWorker int, quick bool) int {
	if quick {
		return 1 << 10
	}
	n := opsPerWorker / 8
	if n > 1<<16 {
		n = 1 << 16
	}
	return n
}

// ycsbRun executes one (table, workload) cell and returns its RunResult.
func ycsbRun(cfg Config, tblName string, w ycsbWorkload, slots uint64, records, opsPerWorker, workers int) RunResult {
	reg := cfg.Observe // live registry when serving /metrics...
	if reg == nil {
		reg = obs.NewWith(0, 1) // ...else self-contained, histograms only
	}
	// The cell name keys the run, the worker names, and the histogram merge.
	cell := "ycsb-" + w.name + "-" + tblName
	var flt *folklore.Table
	var dht *dramhit.Table
	switch tblName {
	case "folklore":
		flt = folklore.New(slots)
		flt.Observe(reg)
	default:
		dht = dramhit.New(dramhit.Config{
			Slots:       slots,
			ProbeKernel: cfg.ProbeKernel,
			Combining:   cfg.Combining,
			Observe:     reg,
		})
	}

	// Load phase (untimed): unique keys, value = key.
	keys := workload.UniqueKeys(cfg.Seed, records)
	if flt != nil {
		for _, k := range keys {
			flt.Put(k, k)
		}
	} else {
		h := dht.NewHandle()
		const batch = 64
		reqs := make([]table.Request, batch)
		for n := 0; n < len(keys); n += batch {
			b := batch
			if len(keys)-n < b {
				b = len(keys) - n
			}
			for i := 0; i < b; i++ {
				reqs[i] = table.Request{Op: table.Put, Key: keys[n+i], Value: keys[n+i]}
			}
			rem := reqs[:b]
			for len(rem) > 0 {
				nr, _ := h.Submit(rem, nil)
				rem = rem[nr:]
			}
		}
		for {
			if _, done := h.Flush(nil); done {
				break
			}
		}
	}

	// Timed phase: each worker draws ranks from its own zipf stream and maps
	// them onto loaded keys. Before the shared start gate every worker runs
	// an untimed warmup ramp (same op mix, disjoint rank stream, throwaway
	// histogram) so first-touch page faults — observed as multi-ms
	// latency_ns.max outliers — are absorbed before the clock starts.
	warmup := ycsbWarmupOps(opsPerWorker, cfg.Quick)
	var wg, ready sync.WaitGroup
	gate := make(chan struct{})
	for wid := 0; wid < workers; wid++ {
		wg.Add(1)
		ready.Add(1)
		go func(wid int) {
			defer wg.Done()
			lat := &reg.Worker(fmt.Sprintf("%s-w%d", cell, wid)).Lat
			// Ranks (not scrambled keys) so draws index the loaded keyset.
			seedw := cfg.Seed ^ int64(wid*7919+1)
			ranks := workload.NewRankStream(seedw, uint64(records), ycsbTheta)
			coin := rand.New(rand.NewSource(seedw ^ 0x79637362)) // "ycsb"
			wranks := workload.NewRankStream(seedw^0x7761726d, uint64(records), ycsbTheta)
			wcoin := rand.New(rand.NewSource(seedw ^ 0x7761726d)) // "warm"
			var dh *dramhit.Handle
			if dht != nil {
				dh = dht.NewHandle() // shared across warmup and timed phases
			}
			var discard obs.Histogram
			if flt != nil {
				ycsbFolkloreWorker(flt, keys, wranks, wcoin, w.readProb, warmup, &discard)
			} else {
				ycsbDramhitWorker(dh, keys, wranks, wcoin, w.readProb, warmup, &discard)
			}
			ready.Done()
			<-gate
			if flt != nil {
				ycsbFolkloreWorker(flt, keys, ranks, coin, w.readProb, opsPerWorker, lat)
			} else {
				ycsbDramhitWorker(dh, keys, ranks, coin, w.readProb, opsPerWorker, lat)
			}
		}(wid)
	}
	ready.Wait()
	start := time.Now()
	close(gate)
	wg.Wait()
	elapsed := time.Since(start)

	// Merge this run's per-worker histograms for the summary (the registry
	// may be shared across cells, so filter by the run's name prefix).
	prefix := cell + "-"
	var merged obs.Histogram
	for _, wk := range reg.Workers() {
		if strings.HasPrefix(wk.Name(), prefix) {
			merged.Merge(&wk.Lat)
		}
	}
	pct := PercentilesFromHistogram(&merged)
	totalOps := opsPerWorker * workers
	return RunResult{
		Name:        cell,
		Table:       tblName,
		Workload:    w.name,
		Records:     records,
		Ops:         totalOps,
		Workers:     workers,
		Theta:       ycsbTheta,
		Combining:   cfg.Combining.String(),
		WarmupOps:   warmup,
		Seconds:     elapsed.Seconds(),
		Mops:        float64(totalOps) / elapsed.Seconds() / 1e6,
		LatencyNS:   &pct,
		LatencyHist: merged.Buckets(),
	}
}

// ycsbBatch is the latency-measurement granularity: per-op timer calls would
// dominate the folklore fast path, so both tables record batch-16 wall time
// spread over the batch's ops.
const ycsbBatch = 16

func ycsbFolkloreWorker(t *folklore.Table, keys []uint64, ranks *workload.KeyStream, coin *rand.Rand, readProb float64, ops int, lat *obs.Histogram) {
	for n := 0; n < ops; n += ycsbBatch {
		b := ycsbBatch
		if ops-n < b {
			b = ops - n
		}
		t0 := time.Now()
		for i := 0; i < b; i++ {
			k := keys[ranks.Next()]
			if coin.Float64() < readProb {
				t.Get(k)
			} else {
				t.Upsert(k, 1)
			}
		}
		lat.RecordN(uint64(time.Since(t0).Nanoseconds())/uint64(b), uint64(b))
	}
}

func ycsbDramhitWorker(h *dramhit.Handle, keys []uint64, ranks *workload.KeyStream, coin *rand.Rand, readProb float64, ops int, lat *obs.Histogram) {
	reqs := make([]table.Request, ycsbBatch)
	resps := make([]table.Response, ycsbBatch)
	for n := 0; n < ops; n += ycsbBatch {
		b := ycsbBatch
		if ops-n < b {
			b = ops - n
		}
		t0 := time.Now()
		for i := 0; i < b; i++ {
			k := keys[ranks.Next()]
			if coin.Float64() < readProb {
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
		// Batch latency includes the drain: submit-to-complete for the whole
		// batch, matching what a synchronous caller would wait.
		for {
			if _, done := h.Flush(resps); done {
				break
			}
		}
		lat.RecordN(uint64(time.Since(t0).Nanoseconds())/uint64(b), uint64(b))
	}
}

// RunObsAB measures the observability layer's hot-path cost: the same
// single-handle upsert stream as combine-ab, with Config.Observe nil versus
// attached (histograms + default 1-in-256 lifecycle tracing). Returns the
// artifact and the measured overhead in percent (positive = observe-on is
// slower). The acceptance budget is 2%.
func RunObsAB(cfg Config) (*Artifact, float64) {
	a := &Artifact{
		ID:     "obs-ab",
		Title:  "Observability overhead A/B (real execution)",
		Header: []string{"observe", "Mops", "keylines/op"},
	}
	size := uint64(1 << 20)
	ops := 1 << 21
	reps := 5
	if cfg.Quick {
		size = 1 << 17
		ops = 1 << 15
		reps = 2
	}
	var mops [2]float64
	for side, observed := range []bool{false, true} {
		var reg *obs.Registry
		if observed {
			reg = obs.New() // default trace ring + 1-in-256 sampling
		}
		best := -1.0
		var kl float64
		for rep := 0; rep < reps; rep++ {
			m, k := obsABRep(cfg, size, ops, reg)
			if m > best {
				best, kl = m, k
			}
		}
		mops[side] = best
		a.Rows = append(a.Rows, []string{
			map[bool]string{false: "off", true: "on"}[observed],
			fmt.Sprintf("%.1f", best),
			fmt.Sprintf("%.3f", kl),
		})
	}
	overhead := (mops[0] - mops[1]) / mops[0] * 100
	a.Notes = append(a.Notes,
		fmt.Sprintf("method: %d-slot table, %d zipf(0.60) upserts, batch 16, prefetch window 16, best-of-%d per side", size, ops, reps),
		"observe-on attaches the full registry: per-worker counter shard (published every 64th batch and at every flush), latency histogram, 1-in-256 lifecycle trace sampling",
		fmt.Sprintf("measured overhead: %.2f%% (budget ≤2%%; negative means within noise)", overhead),
		"keylines/op must be identical on both sides — the off/on paths are bit-identical by construction (TestObserveBitIdentical)")
	return a, overhead
}

// obsABRep is one repetition of an obs-ab side: build, stream, report Mops
// and keylines/op.
func obsABRep(cfg Config, size uint64, ops int, reg *obs.Registry) (float64, float64) {
	tbl := dramhit.New(dramhit.Config{
		Slots:       size,
		ProbeKernel: cfg.ProbeKernel,
		Combining:   cfg.Combining,
		Observe:     reg,
	})
	h := tbl.NewHandle()
	ks := workload.NewKeyStream(cfg.Seed, size/2, 0.6)
	const batch = 16
	reqs := make([]table.Request, batch)
	start := time.Now()
	for n := 0; n < ops; n += batch {
		b := batch
		if ops-n < b {
			b = ops - n
		}
		for i := 0; i < b; i++ {
			reqs[i] = table.Request{Op: table.Upsert, Key: ks.Next(), Value: 1}
		}
		rem := reqs[:b]
		for len(rem) > 0 {
			nr, _ := h.Submit(rem, nil)
			rem = rem[nr:]
		}
	}
	for {
		if _, done := h.Flush(nil); done {
			break
		}
	}
	elapsed := time.Since(start)
	st := h.Stats()
	return float64(ops) / elapsed.Seconds() / 1e6, float64(st.KeyLines) / float64(ops)
}
