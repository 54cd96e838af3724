// Command benchdiff compares two benchmark JSON artifacts and gates on
// regression:
//
//	benchdiff old.json new.json
//	benchdiff -tol 0.15 -metrics '_mops$' BENCH_introspect.json new.json
//	benchdiff -metrics 'latency_ns\.p99' -lower 'latency' old.json new.json
//	benchdiff -metrics 'lines_per_op' -lower 'lines|probe' BENCH_layout.json new.json
//
// Both files are decoded as generic JSON and flattened to path → number
// (arrays of named objects — every runs[] in BENCH_*.json — key by name,
// so reordering runs does not shift paths). Paths matching -metrics are
// compared under the relative tolerance; paths matching -lower regress on
// increase (latencies) instead of decrease (throughput).
//
// Exit status: 0 all compared metrics within tolerance (improvements
// included), 1 at least one regression or a previously present metric
// missing from the new artifact, 2 usage or input error — including the
// case where -metrics selects nothing, so a renamed metric cannot
// silently disarm a CI gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"

	"dramhit/internal/bench"
)

func main() {
	tol := flag.Float64("tol", 0.15, "relative tolerance before a change gates")
	metricsRe := flag.String("metrics", "", `regexp selecting compared metric paths (default: paths ending in "mops")`)
	lowerRe := flag.String("lower", "", "regexp marking metrics where an increase is the regression (latencies)")
	minMetrics := flag.Int("min", 1, "fail unless at least this many metrics matched")
	quiet := flag.Bool("q", false, "print only regressions and the verdict")
	jsonOut := flag.Bool("json", false, "emit the full report as JSON instead of text")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [flags] old.json new.json")
		os.Exit(2)
	}

	opts := bench.DiffOptions{Tol: *tol, MinMetrics: *minMetrics}
	var err error
	if *metricsRe != "" {
		if opts.Metrics, err = regexp.Compile(*metricsRe); err != nil {
			fail(fmt.Errorf("-metrics: %v", err))
		}
	}
	if *lowerRe != "" {
		if opts.LowerBetter, err = regexp.Compile(*lowerRe); err != nil {
			fail(fmt.Errorf("-lower: %v", err))
		}
	}

	oldDoc := readJSON(flag.Arg(0))
	newDoc := readJSON(flag.Arg(1))
	rep, err := bench.Diff(oldDoc, newDoc, opts)
	if err != nil {
		fail(err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
	} else {
		for _, row := range rep.Rows {
			mark := " "
			switch {
			case row.Regression:
				mark = "✗"
			case row.Improvement:
				mark = "+"
			}
			if *quiet && !row.Regression {
				continue
			}
			dir := ""
			if row.LowerBetter {
				dir = " (lower=better)"
			}
			fmt.Printf("%s %-58s %14.4g → %-14.4g %+7.1f%%%s\n",
				mark, row.Path, row.Old, row.New, row.Delta*100, dir)
		}
		for _, p := range rep.Missing {
			fmt.Printf("✗ %-58s missing from new artifact\n", p)
		}
		if !*quiet {
			for _, p := range rep.Added {
				fmt.Printf("? %-58s new metric (not gated)\n", p)
			}
		}
	}

	if rep.Failed() {
		fmt.Fprintf(os.Stderr, "benchdiff: FAIL — %d regression(s), %d missing metric(s) beyond ±%.0f%%\n",
			rep.Regressions, len(rep.Missing), rep.Tol*100)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchdiff: ok — %d metric(s) within ±%.0f%%\n", len(rep.Rows), rep.Tol*100)
}

func readJSON(path string) any {
	b, err := os.ReadFile(path)
	if err != nil {
		fail(err)
	}
	var doc any
	if err := json.Unmarshal(b, &doc); err != nil {
		fail(fmt.Errorf("%s: %v", path, err))
	}
	return doc
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}
