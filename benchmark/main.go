// Command benchmark is the repository's one repeatable benchmark: five
// workloads over the in-process table API and a separately spawned
// dramhit-server, six end-to-end metrics read from the quietest of many
// short fixed-op-count windows, and a traced run that times every layer
// from outside. README.md in this directory defines every metric and workload.
//
//	go run . -workload kv-churn -seed 1            # from benchmark/
//	go run . -workload srv-pipe -seed 1 -trace 1   # per-layer metrics
//	go run . -aa 5                                 # same-build A/A self-check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one metric and its unit; the tables below are the
// harness's copy of BENCHMARK.json (a test keeps the two equal). An
// end-to-end metric also carries its bound, the share of the first median by
// which a second one may be worse before it counts as a regression, and
// which direction is better.
type metricDef struct {
	name, unit string
	bound      float64
	higher     bool
}

var endToEnd = []metricDef{
	{"setup_s", "s", 0.25, false},
	{"ops_per_s", "1/s", 0.25, true},
	{"lat_p50_us", "us", 0.25, false},
	{"lat_p99_us", "us", 0.25, false},
	{"cpu_s_per_mop", "s/Mop", 0.25, false},
	{"peak_rss_mb", "MiB", 0.05, false},
}

var perLayer = []metricDef{
	{name: "hashfn.city64_ns", unit: "ns"},
	{name: "hashfn.bytes64_ns", unit: "ns"},
	{name: "simd.probeline4_ns", unit: "ns"},
	{name: "simd.bucketcand7_ns", unit: "ns"},
	{name: "dramhit.submit_ns_per_op", unit: "ns"},
	{name: "dramhit.flush_ns_per_op", unit: "ns"},
	{name: "dramhit.direct_ns_per_op", unit: "ns"},
	{name: "dramhit.lines_per_op", unit: "count"},
	{name: "dramhit.keylines_per_op", unit: "count"},
	{name: "dramhit.tagskips_per_op", unit: "count"},
	{name: "dramhit.reprobes_per_op", unit: "count"},
	{name: "dramhit.cas_per_op", unit: "count"},
	{name: "dramhit.combined_per_op", unit: "count"},
	{name: "dramhit.failed_ops", unit: "count"},
	{name: "folklore.get_ns_per_op", unit: "ns"},
	{name: "folklore.upsert_ns_per_op", unit: "ns"},
	{name: "slotarr.bucket_get_ns", unit: "ns"},
	{name: "slotarr.bucket_put_ns", unit: "ns"},
	{name: "slotarr.bucket_grows", unit: "count"},
	{name: "slotarr.bucket_stashed", unit: "count"},
	{name: "dramhit.bytes_submit_ns_per_op", unit: "ns"},
	{name: "dramhit.bytes_flush_ns_per_op", unit: "ns"},
	{name: "dramhit.bytes_sync_ns_per_op", unit: "ns"},
	{name: "arena.append_ns", unit: "ns"},
	{name: "arena.append_bytes_per_op", unit: "B"},
	{name: "arena.segments_total", unit: "count"},
	{name: "arena.segments_live", unit: "count"},
	{name: "arena.freed_bytes", unit: "B"},
	{name: "arena.bytes_per_live_byte", unit: "ratio"},
	{name: "resp.parse_ns_per_op", unit: "ns"},
	{name: "resp.encode_ns_per_op", unit: "ns"},
	{name: "resp.parse_allocs_per_op", unit: "count"},
	{name: "mctext.parse_ns_per_op", unit: "ns"},
	{name: "mctext.encode_ns_per_op", unit: "ns"},
	{name: "kvserver.nosock_ns_per_op", unit: "ns"},
	{name: "kvserver.net_ns_per_op", unit: "ns"},
	{name: "kvserver.read_syscalls_per_op", unit: "count"},
	{name: "kvserver.write_syscalls_per_op", unit: "count"},
	{name: "kvserver.ctx_switches_per_op", unit: "count"},
	{name: "kvserver.cpu_sys_share", unit: "ratio"},
	{name: "workload.client_cpu_s_per_mop", unit: "s/Mop"},
	{name: "workload.gen_ns_per_op", unit: "ns"},
	{name: "harness.mean_ops_per_s", unit: "1/s"},
	{name: "harness.window_cv", unit: "ratio"},
	{name: "harness.lat_max_us", unit: "us"},
	{name: "harness.gc_cycles", unit: "count"},
	{name: "harness.gc_pause_ms", unit: "ms"},
	{name: "harness.trace_overhead_ratio", unit: "ratio"},
}

// config is one run's command line.
type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	quick     bool
	serverBin string
	outDir    string
}

// nominalSeconds is the measured-phase length the full sizes are calibrated
// to on the reference box; -seconds scales the op count of a window by
// seconds/nominalSeconds. Work stays a fixed op count for a given flag
// value, never a duration: memory growth and end checks repeat exactly.
const nominalSeconds = 12

// scaled applies -seconds (and the traced run's halving) to a workload's
// phase. batch keeps window sizes whole batches.
func (c config) scaled(p phase, batch int) phase {
	if !c.quick {
		ops := float64(p.windowOps) * c.seconds / nominalSeconds
		p.windowOps = (int(ops) + batch - 1) / batch * batch
		p.maxSeconds = 2 * c.seconds
	}
	if c.trace {
		// Half the windows, alternately traced: the rest of the run's time
		// goes to the per-rung replays.
		p.windows /= 2
		p.traceOdd = true
	}
	return p
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64 // end-to-end or per-layer, by -trace
	recs              []windowRec
}

var workloads = map[string]func(config) (outcome, error){
	"tbl-get-dram":   func(c config) (outcome, error) { return runTbl(c, tblGetDRAM(c.quick)) },
	"tbl-upsert-hot": func(c config) (outcome, error) { return runTbl(c, tblUpsertHot(c.quick)) },
	"kv-churn":       runKV,
	"srv-pipe":       func(c config) (outcome, error) { return runSrv(c, srvPipe(c.quick)) },
	"srv-mc-write":   func(c config) (outcome, error) { return runSrv(c, srvMcWrite(c.quick)) },
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	var c config
	var trace, aa int
	flag.StringVar(&c.workload, "workload", "", "one of: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&c.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&c.seconds, "seconds", nominalSeconds, "nominal length of the measured phase; scales the fixed op count")
	flag.IntVar(&trace, "trace", 0, "1: traced run, prints the per-layer metrics in place of the end-to-end ones")
	flag.BoolVar(&c.quick, "quick", false, "tiny sizes (a smoke test, not a measurement)")
	flag.StringVar(&c.serverBin, "server", "", "dramhit-server binary; built into -out when empty")
	flag.StringVar(&c.outDir, "out", "out", "directory for traces and built binaries")
	flag.IntVar(&aa, "aa", 0, "self-check: N alternating A/B pairs of this same build per workload")
	flag.Parse()
	c.trace = trace != 0

	if aa > 0 {
		os.Exit(runAA(c, aa))
	}
	run, ok := workloads[c.workload]
	if !ok || c.seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: need -workload (one of %s) and -seconds > 0\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	// A hard limit on the whole run: a hung server or a wedged pipeline
	// fails the run instead of stalling whoever waits for it.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "benchmark: run exceeded its hard time limit")
		killServers()
		os.Exit(1)
	})
	out, err := run(c)
	watchdog.Stop()
	killServers()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	report(c, out)
}

// report prints the environment, every metric with its unit, and the
// result object the driver reads from the last line.
func report(c config, out outcome) {
	fmt.Printf("workload %s seed %d seconds %g trace %v quick %v\n", c.workload, c.seed, c.seconds, c.trace, c.quick)
	printEnvironment("env ")
	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(defs))
	for _, d := range defs {
		v := out.metrics[d.name]
		fmt.Printf("%-34s %16.6g %s\n", d.name, v, d.unit)
		metrics[d.name] = mv{v, d.unit}
	}
	var rates []float64
	for _, w := range out.recs {
		rates = append(rates, w.rate())
	}
	fmt.Printf("windows %d rate min %.4g p10 %.4g p50 %.4g p90 %.4g max %.4g\n", len(rates),
		quantile(rates, 0), quantile(rates, 0.1), quantile(rates, 0.5), quantile(rates, 0.9), quantile(rates, 1))
	fmt.Printf("ops attempted %d failed %d\n", out.attempted, out.failed)
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// measured is a measured phase plus what the harness process spent on it.
type measured struct {
	recs       []windowRec
	tracers    []*tracer
	selfCPU    float64 // harness user+sys seconds
	gcCycles   uint32
	gcPauseMS  float64
	peakRSSMiB float64 // harness VmHWM at the end of the phase
}

// runPhase runs the windows (the warm-up belongs to set-up) and samples the
// harness process around them. cpu is the CPU clock of the process under
// test.
func runPhase(ws []worker, p phase, cpu func() int64) measured {
	var m measured
	if p.traceOdd {
		for i := range ws {
			m.tracers = append(m.tracers, newTracer(i))
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0 := selfCPUNS()
	m.recs = measure(ws, p, cpu, m.tracers)
	m.selfCPU = seconds(selfCPUNS() - c0)
	runtime.ReadMemStats(&ms1)
	m.gcCycles = ms1.NumGC - ms0.NumGC
	m.gcPauseMS = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	if s, err := sampleProc(os.Getpid()); err == nil {
		m.peakRSSMiB = s.peakRSSMiB
	}
	return m
}

func untraced(w windowRec) bool { return !w.traced }
func traced(w windowRec) bool   { return w.traced }

// endToEndMetrics assembles the six gated metrics. rssMiB belongs to the
// process under test, as does the CPU clock the windows were measured with.
func endToEndMetrics(setupS float64, m measured, rssMiB float64) map[string]float64 {
	s := summarize(m.recs, untraced)
	return map[string]float64{
		"setup_s":       setupS,
		"ops_per_s":     s.opsPerS,
		"lat_p50_us":    s.latP50us,
		"lat_p99_us":    s.latP99us,
		"cpu_s_per_mop": s.cpuSPerMop,
		"peak_rss_mb":   rssMiB,
	}
}

// harnessMetrics adds the untrimmed whole-run view and the generator's own
// cost to a traced run's metrics.
func harnessMetrics(m measured, out map[string]float64) {
	total := summarize(m.recs, nil)
	out["harness.mean_ops_per_s"] = total.meanOpsPerS
	out["harness.window_cv"] = total.windowCV
	out["harness.lat_max_us"] = total.latMaxUs
	out["harness.gc_cycles"] = float64(m.gcCycles)
	out["harness.gc_pause_ms"] = m.gcPauseMS
	if u := summarize(m.recs, untraced).opsPerS; u > 0 {
		out["harness.trace_overhead_ratio"] = summarize(m.recs, traced).opsPerS / u
	}
	out["workload.client_cpu_s_per_mop"] = m.selfCPU / (float64(total.ops) / 1e6)
}

// perOp divides a count or a time by the ops of the selected windows.
func perOp(x float64, recs []windowRec, keep func(windowRec) bool) float64 {
	ops := summarize(recs, keep).ops
	if ops == 0 {
		return 0
	}
	return x / float64(ops)
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// finishTrace writes the trace file of a traced run.
func finishTrace(c config, m measured, metrics map[string]float64) error {
	return writeTrace(c.outDir, traceFile{
		Workload: c.workload, Seed: c.seed, Env: environment(), Metrics: metrics,
	}, m.recs, m.tracers)
}
