// Command loadgen drives the real hash tables with the standard YCSB core
// workloads (A–F): a load phase inserting the initial dataset, then a
// timed run phase with per-operation latency percentiles. Use it to compare
// the designs on your own host the way key-value-store papers are compared.
//
//	loadgen -workload A -table dramhit -records 1000000 -ops 2000000
//	loadgen -workload C -table dramhit-p -workers 8
//	loadgen -workload C -metrics :8090 -json run.json
//	loadgen -workload C -table dramhit -governor direct
//
// -governor {off,direct} picks the flat dramhit backend's execution mode.
// With off the table chooses by size: it runs direct mode (synchronous
// probes) when its slot array is at most 4 MiB (2^18 slots) and the prefetch
// ring otherwise; direct forces direct mode. dramhit-p always runs the ring,
// and its write handles always fold duplicate-key Upserts. The report and
// the -json record name the mode run ("exec"). -valuesize > 0 runs the byte
// workload on the bucket layout (the JSON's "layout": "bucket").
//
// With -metrics the run exposes the unified observability layer over HTTP
// (Prometheus text at /metrics, sampled lifecycle traces at /trace, expvar
// and pprof under /debug/) while it executes; with -json the run's
// configuration, throughput, and latency percentiles land in a
// machine-readable file (bench.RunResult). Every timed operation is
// classified by kind and outcome (get_hit, get_miss, put, upsert,
// delete_hit, delete_miss) and its latency, timed by loadgen's own clock,
// lands in its worker's histogram for that class (log-bucketed, ≤1/32
// relative error, kept out of the table's registry). The report has
// per-class counts and percentiles; the overall percentiles and the
// latency_hist bucket dump are the merge of every class. With -metrics or
// -observe the table runs observed: its hot-key Space-Saving sketch and
// sampled per-op-class latency land on /metrics and /heatmap, and the hot
// keys also in the printout and the JSON summary's hot_keys.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"dramhit"
	"dramhit/internal/bench"
	"dramhit/internal/obs"
	"dramhit/internal/table"
	"dramhit/internal/workload"
	"dramhit/internal/ycsb"
)

func main() {
	workloadName := flag.String("workload", "A", "YCSB core workload: A-F")
	backend := flag.String("table", "dramhit", "dramhit | dramhit-p | folklore | resizable")
	records := flag.Uint64("records", 1_000_000, "rows loaded before the run")
	ops := flag.Int("ops", 2_000_000, "operations in the timed run")
	workers := flag.Int("workers", 4, "concurrent client goroutines")
	missRatio := flag.Float64("missratio", 0, "fraction of reads redirected to guaranteed-absent keys")
	theta := flag.Float64("theta", -1, "zipfian skew of the key stream; negative = workload default")
	governorFlag := flag.String("governor", "off", "execution mode of the flat dramhit backend: off (the table chooses by size: direct up to a 4 MiB slot array, else the prefetch ring) | direct")
	jsonPath := flag.String("json", "", "write the run summary (config, Mops, latency percentiles) as JSON to this path")
	metrics := flag.String("metrics", "", "serve observability on this address during the run, e.g. :8090")
	observe := flag.Bool("observe", false, "attach the observability registry to the table even without -metrics")
	valueSize := flag.Int("valuesize", 0, "run as a byte-string KV workload on the bucket layout (dramhit and dramhit-p backends) with values up to this many bytes; 0 keeps the uint64 workload (flat layout)")
	valueTheta := flag.Float64("valuetheta", 0, "zipf skew of per-write value sizes over [1,valuesize]; 0 = every value exactly -valuesize bytes")
	socketAddr := flag.String("socket", "", "socket client mode: drive a live dramhit-server as a RESP client at this address instead of an in-process table")
	connsFlag := flag.Int("conns", 64, "socket mode: concurrent client TCP connections")
	pipelineFlag := flag.Int("pipeline", 16, "socket mode: max pipelined requests per connection")
	rateFlag := flag.Float64("rate", 0, "socket mode: open-loop target ops/sec across all connections (0 = closed loop)")
	flag.Parse()

	mix, err := ycsb.ByName(*workloadName)
	if err != nil {
		fail(err)
	}
	if *missRatio < 0 || *missRatio > 1 {
		fail(fmt.Errorf("-missratio must be in [0,1], got %v", *missRatio))
	}
	if *theta >= 1 {
		fail(fmt.Errorf("-theta must be negative (default) or in [0,1), got %v", *theta))
	}
	if *socketAddr != "" {
		// Socket client mode: loadgen is the network side of the table —
		// see socket.go. The in-process table flags do not apply.
		if *connsFlag < 1 {
			fail(fmt.Errorf("-conns must be >= 1, got %d", *connsFlag))
		}
		if *pipelineFlag < 1 {
			fail(fmt.Errorf("-pipeline must be >= 1, got %d", *pipelineFlag))
		}
		runSocket(socketRun{
			addr: *socketAddr, mix: mix, records: *records, ops: *ops,
			conns: *connsFlag, pipeline: *pipelineFlag, rate: *rateFlag,
			miss: *missRatio, theta: *theta, valueSize: *valueSize,
			jsonPath: *jsonPath, metrics: *metrics,
		})
		return
	}
	governor, err := dramhit.ParseGovernor(*governorFlag)
	if err != nil {
		fail(err)
	}
	if governor != dramhit.GovernorOff && *backend != "dramhit" {
		fail(fmt.Errorf("-governor applies to the dramhit backend, not %q", *backend))
	}
	if *valueSize < 0 {
		fail(fmt.Errorf("-valuesize must be >= 0, got %d", *valueSize))
	}
	// A bucket table serves the byte API, a flat table the uint64 one.
	byteMode := *valueSize > 0
	if byteMode && *backend != "dramhit" && *backend != "dramhit-p" {
		fail(fmt.Errorf("-valuesize applies to the dramhit and dramhit-p backends, not %q", *backend))
	}
	if byteMode && governor != dramhit.GovernorOff {
		fail(fmt.Errorf("-governor %s applies to flat tables only: a bucket table has no uint64 ring", *governorFlag))
	}
	if *valueTheta != 0 && !byteMode {
		fail(fmt.Errorf("-valuetheta applies only with -valuesize"))
	}
	if *valueTheta < 0 || *valueTheta >= 1 {
		fail(fmt.Errorf("-valuetheta must be in [0,1), got %v", *valueTheta))
	}

	// reg is the table-attached observability registry (nil unless asked
	// for: observation off must cost nothing).
	var reg *dramhit.Observability
	if *metrics != "" || *observe {
		reg = dramhit.NewObservability()
	}
	if *metrics != "" {
		srv, err := dramhit.ServeObservability(*metrics, reg)
		if err != nil {
			fail(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "loadgen: observability on http://%s/metrics\n", srv.Addr)
	}

	// view is the per-worker synchronous face over whichever backend. In
	// byte mode (-valuesize) the getB/putB closures drive the bucket
	// layout's byte-string API instead of get/put.
	type view struct {
		get  func(k uint64) (uint64, bool)
		put  func(k, v uint64)
		getB func(k []byte) bool
		putB func(k, v []byte)
		fin  func()
	}
	var mkView func(w int) view
	var teardown func()

	slots := nextPow2(*records * 2)
	var bt *dramhit.Table // byte mode's bucket table, on either backend
	exec := ""            // the flat backends' execution mode: "direct" or "ring"
	switch *backend {
	case "dramhit":
		if byteMode {
			bt = dramhit.New(dramhit.Config{Slots: slots, Observe: reg, Layout: dramhit.LayoutBucket})
			break
		}
		t := dramhit.New(dramhit.Config{Slots: slots, Governor: governor, Observe: reg})
		exec = "ring"
		if t.Direct() {
			exec = "direct"
		}
		t.NewHandle().PutBatch(ycsb.LoadKeys(*records, 1), make([]uint64, *records))
		mkView = func(int) view {
			s := t.NewSync()
			return view{get: s.Get, put: func(k, v uint64) { s.Put(k, v) }, fin: func() {}}
		}
	case "folklore":
		t := dramhit.NewFolklore(slots)
		if reg != nil {
			t.Observe(reg)
		}
		for _, k := range ycsb.LoadKeys(*records, 1) {
			t.Put(k, 0)
		}
		mkView = func(int) view {
			return view{get: t.Get, put: func(k, v uint64) { t.Put(k, v) }, fin: func() {}}
		}
	case "resizable":
		t := dramhit.NewResizable(slots)
		if reg != nil {
			t.Observe(reg)
		}
		for _, k := range ycsb.LoadKeys(*records, 1) {
			t.Put(k, 0)
		}
		mkView = func(int) view {
			return view{get: t.Get, put: func(k, v uint64) { t.Put(k, v) }, fin: func() {}}
		}
	case "dramhit-p":
		consumers := max(1, *workers/2)
		if byteMode {
			// As many partitions as the flat table gets: one per consumer.
			bt = dramhit.NewPartitionedBytes(dramhit.PartitionedBytesConfig{Slots: slots, Partitions: consumers, Observe: reg})
			break
		}
		t := dramhit.NewPartitioned(dramhit.PartitionedConfig{
			Slots: slots, Producers: *workers + 1, Consumers: consumers, Observe: reg,
		})
		exec = "ring"
		t.Start()
		teardown = t.Close
		w := t.NewWriteHandle()
		for _, k := range ycsb.LoadKeys(*records, 1) {
			w.Put(k, 0)
		}
		w.Barrier()
		w.Close()
		mkView = func(int) view {
			wh := t.NewWriteHandle()
			rh := t.NewReadHandle()
			return view{
				get: rh.Get,
				put: func(k, v uint64) { wh.Put(k, v) },
				fin: func() { wh.Flush(); wh.Barrier(); wh.Close() },
			}
		}
	default:
		fail(fmt.Errorf("unknown table %q", *backend))
	}
	if bt != nil {
		h := bt.NewHandle()
		loadBytes(func(k, v []byte) { h.PutBytes(k, v) }, *records, *valueSize, *valueTheta)
		mkView = func(int) view {
			// Byte ops are synchronous on a handle; one per worker.
			hw := bt.NewHandle()
			return view{
				getB: func(k []byte) bool { _, ok := hw.GetBytes(k); return ok },
				putB: func(k, v []byte) { hw.PutBytes(k, v) },
				fin:  func() {},
			}
		}
	}

	// Latency lands in per-worker, per-op-class histograms (bounded memory,
	// zero-alloc, mergeable). They are client-side (loadgen's own clock), so
	// they cost the table nothing and work on every backend, and they stay
	// local, so that the registry's op_latency is the table's own.
	classLat := make([][obs.NumOpClasses]obs.Histogram, *workers)

	start := time.Now()
	var wg sync.WaitGroup
	perWorker := *ops / *workers
	for wi := 0; wi < *workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			v := mkView(wi)
			g := ycsb.NewGeneratorMissTheta(mix, *records, int64(wi+1), *missRatio, *theta)
			// exec runs one operation against the view and reports its op
			// class: uint64 values by default, rendered byte keys and sized
			// byte values in byte mode. A read-modify-write counts as one
			// upsert (its latency covers both halves); a scan is classed by
			// its first probe's outcome.
			exec := func(op ycsb.Op, i int) int {
				switch op.Kind {
				case ycsb.Read:
					_, ok := v.get(op.Key)
					return obs.OpClass(table.Get, ok)
				case ycsb.Update, ycsb.Insert:
					v.put(op.Key, uint64(i))
					return obs.OpClass(table.Put, true)
				case ycsb.ReadModifyWrite:
					if old, ok := v.get(op.Key); ok {
						v.put(op.Key, old+1)
					} else {
						v.put(op.Key, 1)
					}
					return obs.OpClass(table.Upsert, true)
				case ycsb.Scan:
					_, first := v.get(op.Key)
					for j := 1; j < op.ScanLen; j++ {
						v.get(op.Key + uint64(j))
					}
					return obs.OpClass(table.Get, first)
				}
				return obs.OpClass(table.Get, false)
			}
			if byteMode {
				g.WithValueSizer(workload.NewValueSizer(int64(wi+1), *valueSize, *valueTheta))
				var kb, vb []byte
				exec = func(op ycsb.Op, i int) int {
					kb = workload.AppendByteKey(kb[:0], op.Key)
					switch op.Kind {
					case ycsb.Read:
						return obs.OpClass(table.Get, v.getB(kb))
					case ycsb.Update, ycsb.Insert:
						vb = workload.FillValue(vb, op.Key, op.ValueSize)
						v.putB(kb, vb)
						return obs.OpClass(table.Put, true)
					case ycsb.ReadModifyWrite:
						v.getB(kb)
						vb = workload.FillValue(vb, op.Key, op.ValueSize)
						v.putB(kb, vb)
						return obs.OpClass(table.Upsert, true)
					case ycsb.Scan:
						first := v.getB(kb)
						for j := 1; j < op.ScanLen; j++ {
							kb = workload.AppendByteKey(kb[:0], op.Key+uint64(j))
							v.getB(kb)
						}
						return obs.OpClass(table.Get, first)
					}
					return obs.OpClass(table.Get, false)
				}
			}
			cl := &classLat[wi]
			for i := 0; i < perWorker; i++ {
				op := g.Next()
				t0 := time.Now()
				cls := exec(op, i)
				cl[cls].Record(uint64(time.Since(t0).Nanoseconds()))
			}
			v.fin()
		}(wi)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if teardown != nil {
		teardown()
	}

	// Per-op-class rollup: counts and latency summaries from the merged
	// per-class histograms; every op lands in one class, so their merge is
	// the overall distribution.
	var merged obs.Histogram
	var clsTotals [obs.NumOpClasses]uint64
	opsByType := map[string]uint64{}
	opLatNS := map[string]bench.Percentiles{}
	for cls := 0; cls < obs.NumOpClasses; cls++ {
		var m obs.Histogram
		for wi := range classLat {
			m.Merge(&classLat[wi][cls])
		}
		merged.Merge(&m)
		if clsTotals[cls] = m.Count(); clsTotals[cls] != 0 {
			opsByType[obs.OpClassNames[cls]] = clsTotals[cls]
			opLatNS[obs.OpClassNames[cls]] = bench.PercentilesFromHistogram(&m)
		}
	}
	total := merged.Count()
	pct := bench.PercentilesFromHistogram(&merged)

	missNote := ""
	if *missRatio > 0 {
		missNote = fmt.Sprintf(", miss %.0f%%", *missRatio*100)
	}
	if *theta >= 0 {
		missNote += fmt.Sprintf(", theta %.2f", *theta)
	}
	if exec != "" {
		missNote += ", exec " + exec
	}
	if byteMode {
		missNote += fmt.Sprintf(", layout bucket, byte values <=%dB", *valueSize)
		if *valueTheta > 0 {
			missNote += fmt.Sprintf(" (zipf %.2f)", *valueTheta)
		}
	}
	fmt.Printf("ycsb-%s on %s: %d ops, %d workers%s, %v (%.2f Mops)\n",
		mix.Name, *backend, total, *workers, missNote, elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds()/1e6)
	fmt.Printf("  latency ns (all workers, log-bucketed): p50=%.0f p90=%.0f p99=%.0f p99.9=%.0f max=%.0f mean=%.0f\n",
		pct.P50, pct.P90, pct.P99, pct.P999, pct.Max, pct.Mean)
	for cls := 0; cls < obs.NumOpClasses; cls++ {
		name := obs.OpClassNames[cls]
		if p, ok := opLatNS[name]; ok {
			fmt.Printf("  %-11s %9d ops  p50=%.0f p99=%.0f p99.9=%.0f mean=%.0f ns\n",
				name, clsTotals[cls], p.P50, p.P99, p.P999, p.Mean)
		}
	}
	if reg != nil {
		if top := reg.TopKeys(8); len(top) > 0 {
			fmt.Printf("  hot keys (count±err):")
			for _, it := range top {
				fmt.Printf(" %#x=%d±%d", it.Key, it.Count, it.Err)
			}
			fmt.Println()
		}
	}

	if *jsonPath != "" {
		res := bench.RunResult{
			Name:        "loadgen-" + mix.Name + "-" + *backend,
			Table:       *backend,
			Workload:    mix.Name,
			Records:     int(*records),
			Ops:         int(total),
			Workers:     *workers,
			Theta:       ycsb.EffectiveTheta(mix, *theta),
			MissRatio:   *missRatio,
			Seconds:     elapsed.Seconds(),
			Mops:        float64(total) / elapsed.Seconds() / 1e6,
			LatencyNS:   &pct,
			LatencyHist: merged.Buckets(),
			OpsByType:   opsByType,
			OpLatencyNS: opLatNS,
		}
		if reg != nil {
			res.HotKeys = reg.TopKeys(16)
		}
		res.Exec = exec
		if byteMode {
			res.Layout = "bucket"
			res.ValueSize = *valueSize
			res.ValueTheta = *valueTheta
		}
		if err := bench.WriteJSONFile(*jsonPath, res); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "loadgen: wrote %s\n", *jsonPath)
	}
}

// loadBytes runs the byte-mode load phase: every load key in its canonical
// "user<id>" string form with a deterministic, sizer-drawn value — the same
// rank space the uint64 load phase covers, so run-phase streams hit.
func loadBytes(put func(k, v []byte), records uint64, size int, theta float64) {
	sizer := workload.NewValueSizer(1, size, theta)
	var kb, vb []byte
	for _, k := range ycsb.LoadKeys(records, 1) {
		kb = workload.AppendByteKey(kb[:0], k)
		vb = workload.FillValue(vb, k, sizer.Next())
		put(kb, vb)
	}
}

func nextPow2(v uint64) uint64 {
	p := uint64(1)
	for p < v {
		p <<= 1
	}
	return p
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
