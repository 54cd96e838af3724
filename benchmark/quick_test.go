package main

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// serverBin is built once for the whole test binary.
var serverBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dramhit-benchmark-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	serverBin, err = buildServer(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	killServers()
	os.RemoveAll(dir)
	os.Exit(code)
}

// layersOf lists, per workload, per-layer metrics that must come out
// positive in a traced run: the ones the workload exists to expose.
var layersOf = map[string][]string{
	"tbl-get-dram": {"dramhit.submit_ns_per_op", "dramhit.flush_ns_per_op", "dramhit.direct_ns_per_op",
		"dramhit.lines_per_op", "dramhit.keylines_per_op", "folklore.get_ns_per_op"},
	"tbl-upsert-hot": {"dramhit.submit_ns_per_op", "dramhit.direct_ns_per_op", "dramhit.cas_per_op",
		"dramhit.combined_per_op", "folklore.upsert_ns_per_op"},
	"kv-churn": {"slotarr.bucket_get_ns", "slotarr.bucket_put_ns", "dramhit.bytes_submit_ns_per_op",
		"dramhit.bytes_flush_ns_per_op", "dramhit.bytes_sync_ns_per_op", "arena.append_ns",
		"arena.append_bytes_per_op", "arena.bytes_per_live_byte"},
	"srv-pipe": {"resp.parse_ns_per_op", "resp.encode_ns_per_op", "kvserver.nosock_ns_per_op",
		"kvserver.read_syscalls_per_op", "kvserver.write_syscalls_per_op", "arena.append_bytes_per_op"},
	"srv-mc-write": {"mctext.parse_ns_per_op", "mctext.encode_ns_per_op", "kvserver.nosock_ns_per_op",
		"kvserver.read_syscalls_per_op", "kvserver.write_syscalls_per_op", "arena.append_bytes_per_op"},
}

// Every workload, at -quick sizes, untraced and traced, against the real
// server: the harness stays compiling and alive end to end. The full sizes
// never run under go test.
func TestQuickRuns(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				c := config{workload: name, seed: 42, seconds: nominalSeconds, trace: trace, quick: true,
					serverBin: serverBin, outDir: t.TempDir()}
				t0 := time.Now()
				out, err := workloads[name](c)
				if err != nil {
					t.Fatal(err)
				}
				if d := time.Since(t0); d > 20*time.Second {
					t.Errorf("quick run took %v", d)
				}
				if out.attempted < 1000 || out.failed != 0 {
					t.Errorf("attempted %d failed %d", out.attempted, out.failed)
				}
				if !trace {
					for _, d := range endToEnd {
						if v, ok := out.metrics[d.name]; !ok || !(v > 0) {
							t.Errorf("%s = %v, want a positive value", d.name, v)
						}
					}
					return
				}
				known := map[string]bool{}
				for _, d := range perLayer {
					known[d.name] = true
				}
				for k := range out.metrics {
					if !known[k] {
						t.Errorf("metric %q is not declared in perLayer", k)
					}
				}
				must := append([]string{"hashfn.city64_ns", "hashfn.bytes64_ns", "simd.probeline4_ns",
					"simd.bucketcand7_ns", "workload.gen_ns_per_op", "workload.client_cpu_s_per_mop",
					"harness.mean_ops_per_s", "harness.lat_max_us", "harness.trace_overhead_ratio"},
					layersOf[name]...)
				for _, k := range must {
					if !(out.metrics[k] > 0) {
						t.Errorf("%s = %v, want a positive value", k, out.metrics[k])
					}
				}
				if _, err := os.Stat(c.outDir + "/" + name + ".trace.json"); err != nil {
					t.Errorf("no trace file: %v", err)
				}
			})
		}
	}
}

// Different seeds must give different inputs and still no failures.
func TestQuickSecondSeed(t *testing.T) {
	for _, name := range []string{"kv-churn", "srv-mc-write"} {
		out, err := workloads[name](config{workload: name, seed: 7, seconds: nominalSeconds, quick: true,
			serverBin: serverBin, outDir: t.TempDir()})
		if err != nil || out.failed != 0 {
			t.Errorf("%s seed 7: failed %d, err %v", name, out.failed, err)
		}
	}
}

func TestServerLifecycle(t *testing.T) {
	s, err := startServer(serverBin, "resp", "-resp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pid := s.pid()
	if !s.alive() || !strings.HasPrefix(s.addr, "127.0.0.1:") {
		t.Fatalf("server alive=%v addr=%q", s.alive(), s.addr)
	}
	if _, err := sampleProc(pid); err != nil {
		t.Errorf("sampleProc of a live server: %v", err)
	}
	killServers()
	if s.alive() {
		t.Error("server survived killServers")
	}
	if _, err := os.Stat(fmt.Sprintf("/proc/%d", pid)); err == nil {
		t.Errorf("pid %d still exists after stop", pid)
	}

	// A binary that exits without listening is an error, not a hang.
	if _, err := startServer("/bin/sh", "resp", "-c", "exit 3"); err == nil {
		t.Error("a server that exits at once must fail the start")
	}
	// A server that dies mid-run fails the run.
	sz := srvPipe(true)
	b, err := setupSrv(sz, 1, serverBin)
	if err != nil {
		t.Fatal(err)
	}
	b.srv.stop()
	var h hist
	b.workers[0].run(sz.batch, &h, nil)
	if _, failed := b.workers[0].counts(); failed == 0 {
		t.Error("ops against a dead server were not counted as failed")
	}
	b.close()
}
