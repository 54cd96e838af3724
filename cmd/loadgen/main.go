// Command loadgen drives the real hash tables with the standard YCSB core
// workloads (A–F): a load phase inserting the initial dataset, then a
// timed run phase with per-operation latency percentiles. Use it to compare
// the designs on your own host the way key-value-store papers are compared.
//
//	loadgen -workload A -table dramhit -records 1000000 -ops 2000000
//	loadgen -workload C -table dramhit-p -workers 8
//	loadgen -workload C -metrics :8090 -json run.json
//	loadgen -workload C -table dramhit -governor direct
//	loadgen -workload C -table sharded -shards 4 -splitat 0.5 -json run.json
//
// -governor {off,direct} picks the dramhit backends' execution mode: the
// prefetch pipeline (off) or synchronous direct probes, the execution for a
// cache-resident table.
//
// -table sharded drives the horizontal shard router (internal/shardmap)
// with -shards initial shards; -splitat f forces a live shard split once
// fraction f of the timed ops has completed, so the split's cooperative
// migration races the op stream. The summary then includes per-shard fill
// and the split's install-to-complete latency.
//
// With -metrics the run exposes the unified observability layer over HTTP
// (Prometheus text at /metrics, sampled lifecycle traces at /trace, expvar
// and pprof under /debug/) while it executes; with -json the run's
// configuration, throughput, and latency percentiles land in a
// machine-readable file using the same schema as BENCH_ycsb.json entries.
// Every timed run additionally classifies each operation by kind and
// outcome (get_hit, get_miss, put, upsert, delete_hit, delete_miss) and
// reports per-class counts and latency percentiles; -introspect arms the
// table-side introspection extras on top (the hot-key Space-Saving sketch
// and per-op-class latency stamping inside the table), whose results land
// on /metrics, /heatmap and in the JSON summary's hot_keys.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dramhit"
	"dramhit/internal/bench"
	"dramhit/internal/latency"
	"dramhit/internal/obs"
	"dramhit/internal/table"
	"dramhit/internal/workload"
	"dramhit/internal/ycsb"
)

func main() {
	workloadName := flag.String("workload", "A", "YCSB core workload: A-F")
	backend := flag.String("table", "dramhit", "dramhit | dramhit-p | folklore | resizable | sharded")
	shards := flag.Int("shards", 0, "initial shard count for the sharded backend (power of two; default 4)")
	splitAt := flag.Float64("splitat", 0, "force a live shard split once this fraction of the timed ops has completed (sharded backend, in (0,1))")
	records := flag.Uint64("records", 1_000_000, "rows loaded before the run")
	ops := flag.Int("ops", 2_000_000, "operations in the timed run")
	workers := flag.Int("workers", 4, "concurrent client goroutines")
	missRatio := flag.Float64("missratio", 0, "fraction of reads redirected to guaranteed-absent keys")
	theta := flag.Float64("theta", -1, "zipfian skew of the key stream; negative = workload default")
	combiningFlag := flag.String("combining", "on", "dramhit-p write handles fold duplicate-key Upserts before delegating: on | off")
	governorFlag := flag.String("governor", "off", "execution mode of the flat dramhit and dramhit-p backends: off (prefetch pipeline) | direct")
	resizeModeFlag := flag.String("resizemode", "incremental", "resizable-table migration mode: incremental | gate")
	jsonPath := flag.String("json", "", "write the run summary (config, Mops, latency percentiles) as JSON to this path")
	metrics := flag.String("metrics", "", "serve observability on this address during the run, e.g. :8090")
	observe := flag.Bool("observe", false, "attach the observability registry to the table even without -metrics")
	introspect := flag.Bool("introspect", false, "arm table-side introspection (hot-key sketch + per-op-class latency stamping); implies -observe")
	latsink := flag.String("latsink", "hist", "latency sink: hist (log-bucketed, zero-alloc, mergeable) | exact (reservoir + exact CDF)")
	layoutFlag := flag.String("layout", "flat", "physical slot layout (dramhit and dramhit-p backends): flat (the uint64 workload) | bucket (the byte workload; needs -valuesize)")
	valueSize := flag.Int("valuesize", 0, "run as a byte-string KV workload with values up to this many bytes (goes with -layout bucket); 0 keeps the uint64 workload (flat layout)")
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
	combining, err := dramhit.ParseCombining(*combiningFlag)
	if err != nil {
		fail(err)
	}
	governor, err := dramhit.ParseGovernor(*governorFlag)
	if err != nil {
		fail(err)
	}
	resizeMode, err := dramhit.ParseResizeMode(*resizeModeFlag)
	if err != nil {
		fail(err)
	}
	if *latsink != "hist" && *latsink != "exact" {
		fail(fmt.Errorf("-latsink must be hist or exact, got %q", *latsink))
	}
	if combining != dramhit.CombineOn && *backend != "dramhit-p" {
		fail(fmt.Errorf("-combining applies to the dramhit-p backend (its write-side upsert folding), not %q", *backend))
	}
	if governor != dramhit.GovernorOff && *backend != "dramhit" && *backend != "dramhit-p" {
		fail(fmt.Errorf("-governor applies to the dramhit and dramhit-p backends, not %q", *backend))
	}
	if *shards != 0 && *backend != "sharded" {
		fail(fmt.Errorf("-shards applies to the sharded backend, not %q", *backend))
	}
	if *shards < 0 || *shards&(*shards-1) != 0 {
		fail(fmt.Errorf("-shards must be a power of two, got %d", *shards))
	}
	if *splitAt != 0 && *backend != "sharded" {
		fail(fmt.Errorf("-splitat applies to the sharded backend, not %q", *backend))
	}
	if *splitAt < 0 || *splitAt >= 1 {
		fail(fmt.Errorf("-splitat must be in (0,1), got %v", *splitAt))
	}
	layout, err := dramhit.ParseLayout(*layoutFlag)
	if err != nil {
		fail(err)
	}
	if layout == dramhit.LayoutBucket && *backend != "dramhit" && *backend != "dramhit-p" {
		fail(fmt.Errorf("-layout bucket applies to the dramhit and dramhit-p backends, not %q", *backend))
	}
	if *valueSize < 0 {
		fail(fmt.Errorf("-valuesize must be >= 0, got %d", *valueSize))
	}
	byteMode := *valueSize > 0
	if byteMode != (layout == dramhit.LayoutBucket) {
		fail(fmt.Errorf("-valuesize and -layout bucket go together: a bucket table serves the byte API, a flat table the uint64 one"))
	}
	if layout == dramhit.LayoutBucket && combining != dramhit.CombineOn {
		fail(fmt.Errorf("-combining off applies to flat tables only: a bucket table's writes are synchronous byte writes, never delegated Upserts"))
	}
	if layout == dramhit.LayoutBucket && governor != dramhit.GovernorOff {
		fail(fmt.Errorf("-governor %s applies to flat tables only: a bucket table has no uint64 ring", *governorFlag))
	}
	if *valueTheta != 0 && !byteMode {
		fail(fmt.Errorf("-valuetheta applies only with -valuesize"))
	}
	if *valueTheta < 0 || *valueTheta >= 1 {
		fail(fmt.Errorf("-valuetheta must be in [0,1), got %v", *valueTheta))
	}

	// reg is the table-attached observability registry (nil unless asked
	// for: observation off must cost nothing); latReg always exists so the
	// histogram latency sink has worker shards to record into.
	var reg *dramhit.Observability
	if *metrics != "" || *observe || *introspect {
		reg = dramhit.NewObservability()
	}
	if *introspect {
		// Arm before any table or handle is created: workers pick up their
		// sketch shard and latency stamping at creation time.
		reg.EnableHotKeys(0)
		reg.EnableOpLatency()
	}
	latReg := reg
	if latReg == nil {
		latReg = obs.NewWith(0, 1)
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
	// shmap is set for the sharded backend: the split driver and the
	// per-shard summary need the router itself.
	var shmap *dramhit.Sharded

	slots := nextPow2(*records * 2)
	switch *backend {
	case "sharded":
		n := *shards
		if n == 0 {
			n = 4
		}
		t := dramhit.NewSharded(slots, dramhit.WithShards(n))
		if reg != nil {
			t.Observe(reg)
		}
		for _, k := range ycsb.LoadKeys(*records, 1) {
			t.Put(k, 0)
		}
		shmap = t
		mkView = func(int) view {
			return view{get: t.Get, put: func(k, v uint64) { t.Put(k, v) }, fin: func() {}}
		}
	case "dramhit":
		t := dramhit.New(dramhit.Config{Slots: slots, Governor: governor, Observe: reg, Layout: layout})
		h := t.NewHandle()
		if byteMode {
			loadBytes(func(k, v []byte) { h.PutBytes(k, v) }, *records, *valueSize, *valueTheta)
		} else {
			h.PutBatch(ycsb.LoadKeys(*records, 1), make([]uint64, *records))
		}
		mkView = func(int) view {
			if byteMode {
				// Byte ops are synchronous on a handle; one per worker.
				hw := t.NewHandle()
				return view{
					getB: func(k []byte) bool { _, ok := hw.GetBytes(k); return ok },
					putB: func(k, v []byte) { hw.PutBytes(k, v) },
					fin:  func() {},
				}
			}
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
		t := dramhit.NewResizableMode(slots, resizeMode)
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
		t := dramhit.NewPartitioned(dramhit.PartitionedConfig{
			Slots: slots, Producers: *workers + 1, Consumers: max(1, *workers/2),
			Combining: combining, Governor: governor, Observe: reg, Layout: layout,
		})
		t.Start()
		teardown = t.Close
		w := t.NewWriteHandle()
		if byteMode {
			loadBytes(func(k, v []byte) { w.PutBytes(k, v) }, *records, *valueSize, *valueTheta)
		} else {
			for _, k := range ycsb.LoadKeys(*records, 1) {
				w.Put(k, 0)
			}
		}
		w.Barrier()
		w.Close()
		mkView = func(int) view {
			wh := t.NewWriteHandle()
			rh := t.NewReadHandle()
			if byteMode {
				// Byte ops bypass the delegation rings (synchronous on the
				// engine), so no Flush/Barrier is needed at teardown.
				return view{
					getB: func(k []byte) bool { _, ok := rh.GetBytes(k); return ok },
					putB: func(k, v []byte) { wh.PutBytes(k, v) },
					fin:  func() { wh.Close() },
				}
			}
			return view{
				get: rh.Get,
				put: func(k, v uint64) { wh.Put(k, v) },
				fin: func() { wh.Flush(); wh.Barrier(); wh.Close() },
			}
		}
	default:
		fail(fmt.Errorf("unknown table %q", *backend))
	}

	// Latency sinks: the default histogram sink records into per-worker
	// observability shards (bounded memory, zero-alloc, mergeable, ≤1/32
	// relative error); -latsink exact keeps the reservoir recorder for
	// exact per-worker CDFs.
	useHist := *latsink == "hist"
	recs := make([]*latency.Recorder, *workers)
	hists := make([]*obs.Histogram, *workers)
	opws := make([]*obs.Worker, *workers)
	for i := 0; i < *workers; i++ {
		if useHist {
			w := latReg.Worker(fmt.Sprintf("loadgen-w%d", i))
			hists[i] = &w.Lat
			opws[i] = w
		} else {
			recs[i] = latency.NewRecorder(1 << 18)
		}
	}
	// Per-op-class accounting is client-side (loadgen's own clock), so it
	// costs the table nothing and works on every backend: counts always,
	// per-class latency histograms when the histogram sink is active.
	opCounts := make([][obs.NumOpClasses]uint64, *workers)

	// With -splitat, a driver goroutine watches run progress and forces a
	// live shard split once the requested fraction of the timed ops has
	// completed; the racing workers (and the driver's own reads) finish the
	// migration cooperatively, chunk by chunk, and the install-to-complete
	// wall time is reported as the split latency.
	trackOps := *splitAt > 0
	var opsDone atomic.Int64
	var splitDur time.Duration
	var splitWG sync.WaitGroup
	runDone := make(chan struct{})
	if trackOps {
		loadKeys := ycsb.LoadKeys(*records, 1)
		splitWG.Add(1)
		go func() {
			defer splitWG.Done()
			target := int64(float64(*ops) * *splitAt)
			for opsDone.Load() < target {
				select {
				case <-runDone:
					return
				default:
					runtime.Gosched()
				}
			}
			t0 := time.Now()
			installed := false
			for i := 0; i < len(loadKeys) && !installed; i++ {
				installed = shmap.Split(loadKeys[i])
			}
			for j := 0; shmap.Resharding(); j++ {
				shmap.Get(loadKeys[j%len(loadKeys)])
			}
			splitDur = time.Since(t0)
		}()
	}

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
			rec, hist, ow := recs[wi], hists[wi], opws[wi]
			var cnt [obs.NumOpClasses]uint64
			for i := 0; i < perWorker; i++ {
				op := g.Next()
				t0 := time.Now()
				cls := exec(op, i)
				ns := time.Since(t0).Nanoseconds()
				cnt[cls]++
				if hist != nil {
					hist.Record(uint64(ns))
					ow.Op[cls].Record(uint64(ns))
				} else {
					rec.Add(float64(ns))
				}
				if trackOps {
					opsDone.Add(1)
				}
			}
			opCounts[wi] = cnt
			v.fin()
		}(wi)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(runDone)
	splitWG.Wait()
	if teardown != nil {
		teardown()
	}
	if shmap != nil {
		shmap.DrainResharding()
	}

	var total uint64
	var pct bench.Percentiles
	var latHist []obs.HistBucket
	if useHist {
		var merged obs.Histogram
		for _, h := range hists {
			merged.Merge(h)
		}
		total = merged.Count()
		pct = bench.PercentilesFromHistogram(&merged)
		latHist = merged.Buckets()
	} else {
		cdfs := make([]*latency.CDF, len(recs))
		for i, r := range recs {
			total += r.Count()
			cdfs[i] = r.CDF()
		}
		m := latency.Merge(cdfs...)
		pct = bench.Percentiles{
			P50: m.Quantile(0.5), P90: m.Quantile(0.9), P99: m.Quantile(0.99),
			P999: m.Quantile(0.999), Max: m.Quantile(1), Mean: m.Mean(), Count: total,
		}
	}

	// Per-op-class rollup: counts from every worker, latency summaries from
	// the merged per-class histograms (histogram sink only).
	var clsTotals [obs.NumOpClasses]uint64
	for _, c := range opCounts {
		for cls, n := range c {
			clsTotals[cls] += n
		}
	}
	opsByType := map[string]uint64{}
	for cls, n := range clsTotals {
		if n != 0 {
			opsByType[obs.OpClassNames[cls]] = n
		}
	}
	var opLatNS map[string]bench.Percentiles
	if useHist {
		opLatNS = map[string]bench.Percentiles{}
		for cls := 0; cls < obs.NumOpClasses; cls++ {
			var m obs.Histogram
			for _, w := range opws {
				m.Merge(&w.Op[cls])
			}
			if m.Count() != 0 {
				opLatNS[obs.OpClassNames[cls]] = bench.PercentilesFromHistogram(&m)
			}
		}
	}

	missNote := ""
	if *missRatio > 0 {
		missNote = fmt.Sprintf(", miss %.0f%%", *missRatio*100)
	}
	if *theta >= 0 {
		missNote += fmt.Sprintf(", theta %.2f", *theta)
	}
	if combining == dramhit.CombineOff {
		missNote += ", combining off"
	}
	if governor != dramhit.GovernorOff {
		missNote += ", governor " + governor.String()
	}
	if layout == dramhit.LayoutBucket {
		missNote += ", layout bucket"
	}
	if byteMode {
		missNote += fmt.Sprintf(", byte values <=%dB", *valueSize)
		if *valueTheta > 0 {
			missNote += fmt.Sprintf(" (zipf %.2f)", *valueTheta)
		}
	}
	fmt.Printf("ycsb-%s on %s: %d ops, %d workers%s, %v (%.2f Mops)\n",
		mix.Name, *backend, total, *workers, missNote, elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds()/1e6)
	if useHist {
		fmt.Printf("  latency ns (all workers, log-bucketed): p50=%.0f p90=%.0f p99=%.0f p99.9=%.0f max=%.0f mean=%.0f\n",
			pct.P50, pct.P90, pct.P99, pct.P999, pct.Max, pct.Mean)
	} else {
		for wi, r := range recs {
			fmt.Printf("  worker %d latency ns: %s\n", wi, r.CDF().String())
		}
	}
	for cls := 0; cls < obs.NumOpClasses; cls++ {
		name := obs.OpClassNames[cls]
		n := clsTotals[cls]
		if n == 0 {
			continue
		}
		if p, ok := opLatNS[name]; ok {
			fmt.Printf("  %-11s %9d ops  p50=%.0f p99=%.0f p99.9=%.0f mean=%.0f ns\n",
				name, n, p.P50, p.P99, p.P999, p.Mean)
		} else {
			fmt.Printf("  %-11s %9d ops\n", name, n)
		}
	}
	if *introspect {
		if top := reg.TopKeys(8); len(top) > 0 {
			fmt.Printf("  hot keys (count±err):")
			for _, it := range top {
				fmt.Printf(" %#x=%d±%d", it.Key, it.Count, it.Err)
			}
			fmt.Println()
		}
	}
	if shmap != nil {
		st := shmap.Stats()
		fmt.Printf("  shards: %d (depth %d, splits %d, chunks helped %d)\n",
			st.Shards, st.Depth, st.Splits, st.ChunksHelped)
		for _, s := range shmap.ShardStats() {
			fmt.Printf("  shard %d/%d (prefix %0*b): live=%d cap=%d fill=%.3f\n",
				s.ID, s.Bits, max(int(s.Bits), 1), s.Pfx, s.Live, s.Cap, s.Fill)
		}
		if *splitAt > 0 {
			fmt.Printf("  forced split at %.0f%% of the run: %v install-to-complete\n",
				*splitAt*100, splitDur.Round(time.Microsecond))
		}
	}

	if *jsonPath != "" {
		res := bench.RunResult{
			Name:      "loadgen-" + mix.Name + "-" + *backend,
			Table:     *backend,
			Workload:  mix.Name,
			Records:   int(*records),
			Ops:       int(total),
			Workers:   *workers,
			Theta:     *theta,
			MissRatio: *missRatio,
			Seconds:   elapsed.Seconds(),
			Mops:      float64(total) / elapsed.Seconds() / 1e6,
			LatencyNS: &pct,
			// The merged log-bucketed distribution rides along when the
			// histogram sink is active (-latsink hist, the default).
			LatencyHist: latHist,
			OpsByType:   opsByType,
			OpLatencyNS: opLatNS,
		}
		if *introspect {
			res.HotKeys = reg.TopKeys(16)
		}
		if *backend == "dramhit-p" {
			res.Combining = combining.String()
		}
		if layout == dramhit.LayoutBucket {
			res.Layout = "bucket"
		}
		if byteMode {
			res.ValueSize = *valueSize
			res.ValueTheta = *valueTheta
		}
		if shmap != nil {
			res.Shards = shmap.Stats().Shards
			res.ShardStats = shmap.ShardStats()
			if *splitAt > 0 {
				res.SplitAt = *splitAt
				res.SplitSeconds = splitDur.Seconds()
			}
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
