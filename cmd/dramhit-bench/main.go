// Command dramhit-bench regenerates the tables and figures of the DRAMHiT
// paper's evaluation. Each experiment runs on the cycle-level machine model
// (see DESIGN.md for the substitution rationale) and prints the same rows
// and series the paper reports.
//
// Usage:
//
//	dramhit-bench -list
//	dramhit-bench -exp fig6b
//	dramhit-bench -exp all -quick -out results/
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dramhit/internal/bench"
	"dramhit/internal/obs"
	"dramhit/internal/table"
)

func main() {
	exp := flag.String("exp", "", "experiment ID (see -list), or 'all'")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	quick := flag.Bool("quick", false, "reduced op counts and sweep points")
	seed := flag.Int64("seed", 42, "random seed")
	out := flag.String("out", "", "directory to also write one text + one JSON file per experiment")
	benchjson := flag.String("benchjson", "", "run the ycsb experiment and write its machine-readable summary (schema "+bench.YCSBSchema+") to this path")
	resizejson := flag.String("resizejson", "", "run the resize-ab experiment and write its machine-readable summary (schema "+bench.ResizeSchema+") to this path")
	metrics := flag.String("metrics", "", "serve observability (Prometheus /metrics, /trace, pprof) on this address while experiments run, e.g. :8090")
	probeKernel := flag.String("probekernel", "", "probe kernel for real-execution experiments: swar|scalar (default swar)")
	shardjson := flag.String("shardjson", "", "run the shard-ab experiment and write its machine-readable summary (schema "+bench.ShardSchema+") to this path")
	layoutjson := flag.String("layoutjson", "", "run the layout-ab experiment and write its machine-readable summary (schema "+bench.LayoutSchema+") to this path")
	introspectjson := flag.String("introspectjson", "", "run the introspect-ab experiment and write its machine-readable summary (schema "+bench.IntrospectSchema+") to this path")
	serverjson := flag.String("serverjson", "", "run the server-ab experiment and write its machine-readable summary (schema "+bench.ServerSchema+") to this path")
	layoutFlag := flag.String("layout", "flat", "physical slot layout for the real-execution experiments that honor it: flat|bucket (layout-ab runs both by construction)")
	flag.Parse()

	kernel, err := table.ParseProbeKernel(*probeKernel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dramhit-bench:", err)
		os.Exit(2)
	}
	layout, err := table.ParseLayout(*layoutFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dramhit-bench:", err)
		os.Exit(2)
	}

	if *list {
		for _, id := range bench.IDs() {
			fmt.Println(id)
		}
		return
	}
	var liveReg *obs.Registry
	if *metrics != "" {
		liveReg = obs.New()
		srv, err := obs.Serve(*metrics, liveReg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dramhit-bench:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "dramhit-bench: observability on http://%s/metrics\n", srv.Addr)
	}
	if *exp == "" && *benchjson == "" && *resizejson == "" && *shardjson == "" && *layoutjson == "" && *introspectjson == "" && *serverjson == "" {
		fmt.Fprintln(os.Stderr, "usage: dramhit-bench -exp <id|all> [-quick] [-out dir]; -list shows IDs")
		os.Exit(2)
	}

	var ids []string
	if *exp != "" {
		ids = []string{*exp}
		if *exp == "all" {
			ids = bench.IDs()
		}
	}
	cfg := bench.Config{
		Quick:       *quick,
		Seed:        *seed,
		ProbeKernel: kernel,
		Observe:     liveReg,
		Layout:      layout,
	}
	if *benchjson != "" {
		start := time.Now()
		a, sum := bench.RunYCSB(cfg)
		fmt.Print(bench.Format(a))
		fmt.Printf("(ycsb in %v)\n\n", time.Since(start).Round(time.Millisecond))
		if err := bench.WriteJSONFile(*benchjson, sum); err != nil {
			fmt.Fprintln(os.Stderr, "dramhit-bench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "dramhit-bench: wrote %s\n", *benchjson)
	}
	if *shardjson != "" {
		start := time.Now()
		a, sum := bench.RunShardAB(cfg)
		fmt.Print(bench.Format(a))
		fmt.Printf("(shard-ab in %v)\n\n", time.Since(start).Round(time.Millisecond))
		if err := bench.WriteJSONFile(*shardjson, sum); err != nil {
			fmt.Fprintln(os.Stderr, "dramhit-bench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "dramhit-bench: wrote %s\n", *shardjson)
	}
	if *layoutjson != "" {
		start := time.Now()
		a, sum := bench.RunLayoutAB(cfg)
		fmt.Print(bench.Format(a))
		fmt.Printf("(layout-ab in %v)\n\n", time.Since(start).Round(time.Millisecond))
		if err := bench.WriteJSONFile(*layoutjson, sum); err != nil {
			fmt.Fprintln(os.Stderr, "dramhit-bench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "dramhit-bench: wrote %s\n", *layoutjson)
	}
	if *introspectjson != "" {
		start := time.Now()
		a, sum := bench.RunIntrospectAB(cfg)
		fmt.Print(bench.Format(a))
		fmt.Printf("(introspect-ab in %v)\n\n", time.Since(start).Round(time.Millisecond))
		if err := bench.WriteJSONFile(*introspectjson, sum); err != nil {
			fmt.Fprintln(os.Stderr, "dramhit-bench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "dramhit-bench: wrote %s\n", *introspectjson)
	}
	if *serverjson != "" {
		start := time.Now()
		a, sum := bench.RunServerAB(cfg)
		fmt.Print(bench.Format(a))
		fmt.Printf("(server-ab in %v)\n\n", time.Since(start).Round(time.Millisecond))
		if err := bench.WriteJSONFile(*serverjson, sum); err != nil {
			fmt.Fprintln(os.Stderr, "dramhit-bench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "dramhit-bench: wrote %s\n", *serverjson)
	}
	if *resizejson != "" {
		start := time.Now()
		a, sum := bench.RunResizeAB(cfg)
		fmt.Print(bench.Format(a))
		fmt.Printf("(resize-ab in %v)\n\n", time.Since(start).Round(time.Millisecond))
		if err := bench.WriteJSONFile(*resizejson, sum); err != nil {
			fmt.Fprintln(os.Stderr, "dramhit-bench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "dramhit-bench: wrote %s\n", *resizejson)
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "dramhit-bench:", err)
			os.Exit(1)
		}
	}
	for _, id := range ids {
		r, ok := bench.Get(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "dramhit-bench: unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		start := time.Now()
		a := r(cfg)
		text := bench.Format(a)
		fmt.Print(text)
		fmt.Printf("(%s in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		if *out != "" {
			path := filepath.Join(*out, id+".txt")
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "dramhit-bench:", err)
				os.Exit(1)
			}
			js, err := a.JSON()
			if err == nil {
				err = os.WriteFile(filepath.Join(*out, id+".json"), js, 0o644)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "dramhit-bench:", err)
				os.Exit(1)
			}
		}
	}
	_ = strings.TrimSpace
}
