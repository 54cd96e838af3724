// Socket client mode (-socket): loadgen becomes the network in front of
// the table, driving a live dramhit-server over RESP with -conns concurrent
// connections, -pipeline requests in flight per connection, and optional
// open-loop pacing (-rate ops/sec, latency measured from each request's
// scheduled instant so server queueing lands in the tail).
//
// The YCSB op kinds map onto the wire as: Read → GET, Update/Insert → SET
// (sized -valuesize payloads, default 32 bytes), ReadModifyWrite → INCR on
// a dedicated numeric "ctr<n>" keyspace (the verb requires numeric values,
// which "user<id>" payloads are not), Scan → a point GET of the scan's
// first key (RESP GET has no range form).
package main

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"dramhit/internal/bench"
	"dramhit/internal/obs"
	"dramhit/internal/table"
	"dramhit/internal/workload"
	"dramhit/internal/ycsb"
)

type socketRun struct {
	addr            string
	mix             ycsb.Mix
	records         uint64
	ops             int
	conns, pipeline int
	rate            float64
	miss, theta     float64
	valueSize       int
	jsonPath        string
	metrics         string
}

// sockPoolWorkers caps the metric pool: connections share workers (Record
// is atomic), so a 1024-connection run does not mint 1024 registry entries.
const sockPoolWorkers = 16

func runSocket(cfg socketRun) {
	vsize := cfg.valueSize
	if vsize == 0 {
		vsize = 32
	}
	latReg := obs.NewWith(0, 1)
	if cfg.metrics != "" {
		latReg = obs.New()
		srv, err := obs.Serve(cfg.metrics, latReg)
		if err != nil {
			fail(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "loadgen: observability on http://%s/metrics\n", srv.Addr)
	}
	poolN := cfg.conns
	if poolN > sockPoolWorkers {
		poolN = sockPoolWorkers
	}
	pool := make([]*obs.Worker, poolN)
	for i := range pool {
		pool[i] = latReg.Worker(fmt.Sprintf("loadgen-sock-w%d", i))
	}

	loadConns := cfg.conns
	if loadConns > 16 {
		loadConns = 16
	}
	if err := workload.SocketLoad(cfg.addr, ycsb.LoadKeys(cfg.records, 1), vsize, loadConns, 128); err != nil {
		fail(fmt.Errorf("socket load phase: %w", err))
	}

	perConn := cfg.ops / cfg.conns
	if perConn < 1 {
		perConn = 1
	}
	client := &workload.SocketClient{
		Addr: cfg.addr, Conns: cfg.conns, Pipeline: cfg.pipeline,
		OpsPerConn: perConn, Rate: cfg.rate,
		Record: func(ci int, op table.Op, hit, _ bool, ns uint64) {
			pool[ci%len(pool)].Op[obs.OpClass(op, hit)].Record(ns)
		},
		Stream: func(ci int) workload.SocketStream {
			g := ycsb.NewGeneratorMissTheta(cfg.mix, cfg.records, int64(ci+1), cfg.miss, cfg.theta)
			var kb, vb []byte
			return func(i int) workload.SocketOp {
				op := g.Next()
				switch op.Kind {
				case ycsb.Update, ycsb.Insert:
					kb = workload.AppendByteKey(kb[:0], op.Key)
					vb = workload.FillValue(vb, op.Key, vsize)
					return workload.SocketOp{Op: table.Put, Key: kb, Value: vb}
				case ycsb.ReadModifyWrite:
					kb = append(kb[:0], "ctr"...)
					kb = strconv.AppendUint(kb, op.Key%1024, 10)
					return workload.SocketOp{Op: table.Upsert, Key: kb}
				default: // Read and Scan: a point GET
					kb = workload.AppendByteKey(kb[:0], op.Key)
					return workload.SocketOp{Op: table.Get, Key: kb}
				}
			}
		},
	}
	stats, err := client.Run()
	if err != nil {
		fail(err)
	}

	// Every reply lands in one op class, so the classes' merge is the
	// overall distribution.
	var merged obs.Histogram
	opsByType := map[string]uint64{}
	opLatNS := map[string]bench.Percentiles{}
	for cls := 0; cls < obs.NumOpClasses; cls++ {
		var m obs.Histogram
		for _, w := range pool {
			m.Merge(&w.Op[cls])
		}
		merged.Merge(&m)
		if m.Count() != 0 {
			opsByType[obs.OpClassNames[cls]] = m.Count()
			opLatNS[obs.OpClassNames[cls]] = bench.PercentilesFromHistogram(&m)
		}
	}
	pct := bench.PercentilesFromHistogram(&merged)

	pacing := "closed loop"
	if cfg.rate > 0 {
		pacing = fmt.Sprintf("open loop %.0f ops/s", cfg.rate)
	}
	fmt.Printf("ycsb-%s over socket %s: %d ops, %d conns x %d pipeline, %s, %v (%.2f Mops, %d errors)\n",
		cfg.mix.Name, cfg.addr, stats.Ops, cfg.conns, cfg.pipeline, pacing,
		stats.Elapsed.Round(time.Millisecond),
		float64(stats.Ops)/stats.Elapsed.Seconds()/1e6, stats.Errors)
	fmt.Printf("  latency ns (all conns, log-bucketed): p50=%.0f p90=%.0f p99=%.0f p99.9=%.0f max=%.0f mean=%.0f\n",
		pct.P50, pct.P90, pct.P99, pct.P999, pct.Max, pct.Mean)
	for cls := 0; cls < obs.NumOpClasses; cls++ {
		name := obs.OpClassNames[cls]
		p, ok := opLatNS[name]
		if !ok {
			continue
		}
		fmt.Printf("  %-11s %9d ops  p50=%.0f p99=%.0f p99.9=%.0f mean=%.0f ns\n",
			name, p.Count, p.P50, p.P99, p.P999, p.Mean)
	}

	if cfg.jsonPath != "" {
		res := bench.RunResult{
			Name:        "loadgen-socket-" + cfg.mix.Name,
			Table:       "socket",
			Proto:       "resp",
			Workload:    cfg.mix.Name,
			Records:     int(cfg.records),
			Ops:         int(stats.Ops),
			Workers:     cfg.conns,
			Conns:       cfg.conns,
			Pipeline:    cfg.pipeline,
			TargetRate:  cfg.rate,
			Errors:      stats.Errors,
			Theta:       ycsb.EffectiveTheta(cfg.mix, cfg.theta),
			MissRatio:   cfg.miss,
			ValueSize:   vsize,
			Seconds:     stats.Elapsed.Seconds(),
			Mops:        float64(stats.Ops) / stats.Elapsed.Seconds() / 1e6,
			LatencyNS:   &pct,
			LatencyHist: merged.Buckets(),
			OpsByType:   opsByType,
			OpLatencyNS: opLatNS,
		}
		if err := bench.WriteJSONFile(cfg.jsonPath, res); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "loadgen: wrote %s\n", cfg.jsonPath)
	}
}
