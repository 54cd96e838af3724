package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"syscall"
)

// runOnce runs this same binary on one workload and returns its end-to-end
// metrics.
func runOnce(c config, workload string, seed uint64) (map[string]float64, error) {
	cmd := exec.Command(os.Args[0],
		"-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64),
		"-server", c.serverBin, "-out", c.outDir, "-quick="+strconv.FormatBool(c.quick))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // no run outlives the self-check
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res struct {
		Correct bool
		Failed  int
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%s seed %d: %d failed operations", workload, seed, res.Failed)
	}
	m := map[string]float64{}
	for k, v := range res.Metrics {
		m[k] = v.Value
	}
	return m, nil
}

// runAA measures the benchmark against itself: n alternating A/B pairs of
// this one build per workload, every run on another seed. Two sets of runs
// of the same code must agree within each metric's bound; the spread of
// each set (interquartile range over median) shows how much room is left.
// It prints a markdown table and returns the exit code.
func runAA(c config, n int) int {
	if c.serverBin == "" {
		bin, err := buildServer(c.outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		c.serverBin = bin
	}
	names := workloadNames()
	if c.workload != "" {
		names = []string{c.workload}
	}
	fmt.Printf("A/A self-check: %d alternating pairs per workload, seeds %d..%d, -seconds %g\n\n",
		n, c.seed, c.seed+uint64(2*n)-1, c.seconds)
	printEnvironment("- ")
	fmt.Println("\n| workload | metric | median A | median B | B vs A | bound | IQR/median A | IQR/median B | |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	breaches := 0
	var raw []string
	for _, w := range names {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*n; i++ {
			// Pairs alternate which side goes first: AB BA AB ...
			side := (i + i/2) % 2
			m, err := runOnce(c, w, c.seed+uint64(i))
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			for k, v := range m {
				sets[side][k] = append(sets[side][k], v)
			}
		}
		for _, d := range endToEnd {
			a, b := sets[0][d.name], sets[1][d.name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if d.higher {
				worse = -worse
			}
			verdict := "ok"
			if worse > d.bound {
				verdict = "BREACH"
				breaches++
			}
			raw = append(raw, fmt.Sprintf("- %s %s: A %.5g B %.5g", w, d.name, a, b))
			fmt.Printf("| %s | %s | %.6g | %.6g | %+.2f%% | %.0f%% | %.2f%% | %.2f%% | %s |\n",
				w, d.name, ma, mb, 100*(mb-ma)/ma, 100*d.bound, 100*spread(a), 100*spread(b), verdict)
		}
	}
	fmt.Print("\nEvery run, in the order made within each set:\n\n")
	for _, line := range raw {
		fmt.Println(line)
	}
	if breaches > 0 {
		fmt.Printf("\n%d metric(s) differ between two sets of runs of the same build by more than their bound.\n", breaches)
		return 1
	}
	fmt.Println("\nEvery metric of set B is within its bound of set A.")
	return 0
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	if m := median(xs); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}
