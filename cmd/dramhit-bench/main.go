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
	"time"

	"dramhit/internal/bench"
)

func main() {
	exp := flag.String("exp", "", "experiment ID (see -list), or 'all'")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	quick := flag.Bool("quick", false, "reduced op counts and sweep points")
	seed := flag.Int64("seed", 42, "random seed")
	out := flag.String("out", "", "directory to also write each experiment's text output to, as <id>.txt")
	flag.Parse()

	if *list {
		for _, id := range bench.IDs() {
			fmt.Println(id)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "usage: dramhit-bench -exp <id|all> [-quick] [-out dir]; -list shows IDs")
		os.Exit(2)
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = bench.IDs()
	}
	cfg := bench.Config{Quick: *quick, Seed: *seed}
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
			if err := os.WriteFile(filepath.Join(*out, id+".txt"), []byte(text), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "dramhit-bench:", err)
				os.Exit(1)
			}
		}
	}
}
