// The server-ab experiment: the network front-end A/B. An in-process
// dramhit-server on a loopback socket is driven by the workload socket
// client at rising connection counts, once with the pipelined dramhit
// backend (wire batches drain through the per-connection byte pipeline
// under one prefetch window) and once with the folklore backend (one
// synchronous engine call per request as parsed) — the end-to-end question
// the ROADMAP's serving north star asks: does memory-level batching still
// pay once a real request path feeds the table?
package bench

import (
	"fmt"

	"dramhit/internal/kvserver"
	"dramhit/internal/obs"
	tbl "dramhit/internal/table"
	"dramhit/internal/workload"
	"dramhit/internal/ycsb"
)

// serverPipeline is the per-connection pipeline depth of every cell — the
// same default depth the server's prefetch window covers.
const serverPipeline = 16

// serverValueSize is the SET payload size in bytes.
const serverValueSize = 32

// serverConnLevels returns the connection counts swept. Quick keeps the
// same cell names for its lower levels so the benchdiff gate can compare a
// quick CI regeneration against the committed full baseline.
func serverConnLevels(quick bool) []int {
	if quick {
		return []int{64, 256}
	}
	return []int{64, 256, 1024}
}

// RunServerAB runs the server A/B matrix and returns the text artifact plus
// the machine-readable summary (BENCH_server.json).
func RunServerAB(cfg Config) (*Artifact, *ServerSummary) {
	a := &Artifact{
		ID:     "server-ab",
		Title:  "Network front-end: dramhit vs folklore backend over loopback RESP",
		Header: []string{"conns", "backend", "Mops", "p50 ns", "p99 ns", "p99.9 ns", "errors"},
	}
	// Quick mode only drops the 1024-conn level; records and op count stay
	// at full scale so the quick cells are identical in regime to the
	// committed baseline's lower levels. Cutting either skews the
	// dramhit-vs-folklore ratio (smaller records turn the working set
	// cache-resident and flip the sign, where direct execution beats the
	// pipeline; fewer ops under-amortize the pipelined path's warm-up) and
	// the CI benchdiff gate would compare across regimes.
	records := uint64(1 << 17)
	totalOps := 2_000_000
	// One loaded key set shared by every cell: reads draw ranks over it, so
	// hit ratios are structural, not salt luck. The miss pool is disjoint
	// from the loaded ranks by ScrambleRank's bijection.
	loadedKeys := ycsb.LoadKeys(records, 1)
	missKeys := workload.MissKeys(1, int(records), 4096)

	sum := &ServerSummary{Schema: ServerSchema, Quick: cfg.Quick, Ratios: map[string]float64{}}
	for _, conns := range serverConnLevels(cfg.Quick) {
		mops := map[kvserver.Backend]float64{}
		for _, be := range []kvserver.Backend{kvserver.BackendDramhit, kvserver.BackendFolklore} {
			res := serverCell(be, conns, totalOps, loadedKeys, missKeys)
			sum.Runs = append(sum.Runs, res)
			mops[be] = res.Mops
			lat := res.LatencyNS
			a.Rows = append(a.Rows, []string{
				fmt.Sprintf("%d", conns), be.String(),
				fmt.Sprintf("%.2f", res.Mops),
				fmt.Sprintf("%.0f", lat.P50),
				fmt.Sprintf("%.0f", lat.P99),
				fmt.Sprintf("%.0f", lat.P999),
				fmt.Sprintf("%d", res.Errors),
			})
		}
		if f := mops[kvserver.BackendFolklore]; f > 0 {
			sum.Ratios[fmt.Sprintf("c%d", conns)] = mops[kvserver.BackendDramhit] / f
		}
		if conns > sum.MaxConns {
			sum.MaxConns = conns
		}
	}
	a.Notes = append(a.Notes,
		"method: an in-process dramhit-server on 127.0.0.1:0 per cell, driven closed-loop by the workload socket client (pipeline 16 per connection); mix per connection: 78% GET over the loaded zipf-0.99 rank space, 10% structurally absent GET, 9% SET, 3% INCR on a small counter keyspace — all four op classes cross the wire",
		"dramhit backend: requests parse into the per-connection byte pipeline and drain under one prefetch window per wire batch; folklore backend: one synchronous engine call per request as parsed (the folklore execution model on the same kernel, as in direct mode)",
		fmt.Sprintf("acceptance: the committed full run sustains 1024 concurrent connections with per-op-class p99.9 recorded (schema %s); CI gates dramhit_vs_folklore_mops at matching cells within ±15%%", ServerSchema),
		"loopback RESP is syscall-bound, so the backends land close; the gate catches the pipelined path regressing against the synchronous baseline, not absolute Mops (machine-dependent)")
	return a, sum
}

// serverCell measures one (backend, conns) cell: boot, load, timed drive,
// summarize.
func serverCell(be kvserver.Backend, conns, totalOps int, loadedKeys, missKeys []uint64) RunResult {
	records := len(loadedKeys)
	srv, err := kvserver.New(kvserver.Config{
		RespAddr: "127.0.0.1:0",
		Slots:    uint64(records) * 4,
		Backend:  be,
	})
	if err != nil {
		panic(fmt.Sprintf("server-ab: %v", err))
	}
	defer srv.Close()
	if err := workload.SocketLoad(srv.RespAddr(), loadedKeys, serverValueSize, 16, 128); err != nil {
		panic(fmt.Sprintf("server-ab load: %v", err))
	}

	reg := obs.NewWith(0, 1)
	pool := make([]*obs.Worker, 16)
	for i := range pool {
		pool[i] = reg.Worker(fmt.Sprintf("server-ab-w%d", i))
	}
	perConn := totalOps / conns
	if perConn < 1 {
		perConn = 1
	}
	client := &workload.SocketClient{
		Addr: srv.RespAddr(), Conns: conns, Pipeline: serverPipeline,
		OpsPerConn: perConn,
		Record: func(ci int, op tbl.Op, hit, _ bool, ns uint64) {
			w := pool[ci%len(pool)]
			w.Lat.Record(ns)
			w.Op[obs.OpClass(op, hit)].Record(ns)
		},
		Stream: func(ci int) workload.SocketStream {
			ranks := workload.NewRankStream(int64(ci+1), uint64(records), 0.99)
			var kb, vb []byte
			mi := ci // stagger the miss-pool walk per connection
			return func(i int) workload.SocketOp {
				switch {
				case i%32 == 31: // 3% INCR on a numeric counter keyspace
					// Counter id from the INCR-stream index (i/32), not i
					// itself: i%64 under i%32==31 only ever hits 31 or 63,
					// collapsing the intended 64-key space to 2.
					kb = append(kb[:0], fmt.Sprintf("ctr%d", (i/32)%64)...)
					return workload.SocketOp{Op: tbl.Upsert, Key: kb}
				case i%11 == 9: // 9% SET over the loaded space
					k := loadedKeys[ranks.Next()]
					kb = workload.AppendByteKey(kb[:0], k)
					vb = workload.FillValue(vb, k, serverValueSize)
					return workload.SocketOp{Op: tbl.Put, Key: kb, Value: vb}
				case i%10 == 4: // 10% structurally absent GET
					kb = workload.AppendByteKey(kb[:0], missKeys[mi%len(missKeys)])
					mi++
					return workload.SocketOp{Op: tbl.Get, Key: kb}
				default: // 78% GET over the loaded zipf space
					kb = workload.AppendByteKey(kb[:0], loadedKeys[ranks.Next()])
					return workload.SocketOp{Op: tbl.Get, Key: kb}
				}
			}
		},
	}
	stats, err := client.Run()
	if err != nil {
		panic(fmt.Sprintf("server-ab drive (%s, %d conns): %v", be, conns, err))
	}

	var merged obs.Histogram
	for _, w := range pool {
		merged.Merge(&w.Lat)
	}
	pct := PercentilesFromHistogram(&merged)
	opsByType := map[string]uint64{}
	opLatNS := map[string]Percentiles{}
	for cls := 0; cls < obs.NumOpClasses; cls++ {
		var m obs.Histogram
		for _, w := range pool {
			m.Merge(&w.Op[cls])
		}
		if m.Count() != 0 {
			opsByType[obs.OpClassNames[cls]] = m.Count()
			opLatNS[obs.OpClassNames[cls]] = PercentilesFromHistogram(&m)
		}
	}
	return RunResult{
		Name:        fmt.Sprintf("server-ab-%s-c%d", be, conns),
		Table:       "server/" + be.String(),
		Proto:       "resp",
		Workload:    "mixed-net",
		Records:     records,
		Ops:         int(stats.Ops),
		Workers:     conns,
		Conns:       conns,
		Pipeline:    serverPipeline,
		Errors:      stats.Errors,
		Theta:       0.99,
		MissRatio:   0.1,
		ValueSize:   serverValueSize,
		Seconds:     stats.Elapsed.Seconds(),
		Mops:        float64(stats.Ops) / stats.Elapsed.Seconds() / 1e6,
		LatencyNS:   &pct,
		OpsByType:   opsByType,
		OpLatencyNS: opLatNS,
	}
}
