package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// definition is the part of BENCHMARK.json the benchmark reads.
type definition struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDefinition(path string) (*definition, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	def := &definition{}
	if err := json.Unmarshal(raw, def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return def, nil
}

// quartiles returns the three cut points of xs into four groups by
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), the
// rule the bounds are judged by.
func quartiles(xs []float64) [3]float64 {
	d := slices.Clone(xs)
	slices.Sort(d)
	var q [3]float64
	ld := len(d)
	if ld < 2 {
		if ld == 1 {
			q = [3]float64{d[0], d[0], d[0]}
		}
		return q
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q
}

// repeatRuns runs every workload n times as separate processes, seeds
// 1..n, alternating the workload order between rounds, and prints each
// end-to-end metric's median, quartiles and spread (interquartile range
// over median) against its bound. It fails if any run fails or is
// incorrect; a spread above its bound is flagged, not failed.
func repeatRuns(def *definition, n int, seconds float64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	names := make([]string, len(def.Workloads))
	for i, w := range def.Workloads {
		names[i] = w.Name
	}
	values := map[string]map[string][]float64{}
	var errorRatios []float64
	for round := 0; round < n; round++ {
		order := slices.Clone(names)
		if round%2 == 1 {
			slices.Reverse(order)
		}
		for _, w := range order {
			seed := strconv.Itoa(round + 1)
			cmd := exec.Command(exe, "-workload", w, "-seed", seed, "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"-trace", "0")
			var stdout bytes.Buffer
			cmd.Stdout = &stdout
			cmd.Stderr = os.Stderr
			runErr := cmd.Run()
			out, perr := lastLine(stdout.Bytes())
			if runErr != nil || perr != nil {
				return fmt.Errorf("%s seed %s: %v %v", w, seed, runErr, perr)
			}
			if !out.Correct {
				return fmt.Errorf("%s seed %s: incorrect run", w, seed)
			}
			errorRatios = append(errorRatios, float64(out.Failed)/float64(out.Attempted))
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			for name, v := range out.Metrics {
				values[w][name] = append(values[w][name], v.Value)
			}
			fmt.Printf("round %d %-14s seed %-3s", round+1, w, seed)
			for _, e := range def.EndToEnd {
				fmt.Printf(" %s=%.4g", e.Name, out.Metrics[e.Name].Value)
			}
			fmt.Println()
		}
	}
	flagged := 0
	for _, w := range names {
		fmt.Printf("\n%s (%d runs)\n", w, n)
		fmt.Printf("  %-16s %14s %14s %14s %8s %6s\n", "metric", "median", "q1", "q3", "spread", "bound")
		for _, e := range def.EndToEnd {
			xs := values[w][e.Name]
			med, q := quantile(xs, 0.5), quartiles(xs)
			spread := (q[2] - q[0]) / med
			mark := ""
			if spread > e.Bound {
				mark = "  SPREAD>BOUND"
				flagged++
			}
			fmt.Printf("  %-16s %14.4f %14.4f %14.4f %8.4f %6.3f%s\n", e.Name, med, q[0], q[2], spread, e.Bound, mark)
		}
	}
	fmt.Printf("\nerror_ratio: max %.6f over %d runs; %d metric(s) spread beyond their bound\n",
		slices.Max(errorRatios), len(errorRatios), flagged)
	return nil
}

// lastLine parses the result object on a run's last stdout line.
func lastLine(stdout []byte) (output, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var out output
	if err := json.Unmarshal(last, &out); err != nil {
		return out, fmt.Errorf("no result line: %w", err)
	}
	return out, nil
}
