package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

// benchmarkFile is the benchmark's description at the repository root; the
// bounds live there and nowhere else.
const benchmarkFile = "BENCHMARK.json"

// readBounds returns the end-to-end bounds of BENCHMARK.json by metric name.
func readBounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("selfcheck runs from the repository root: %w", err)
	}
	var file struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]float64{}
	for _, m := range file.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// selfCheck runs every workload (or only the named one) twice at one seed and
// prints each end-to-end metric's relative difference beside its bound. Simulated metrics and the
// fingerprint must agree exactly. It returns an error naming what did not.
func selfCheck(cfg config, only string) error {
	bounds, err := readBounds(benchmarkFile)
	if err != nil {
		return err
	}
	cfg.traced, cfg.layers, cfg.oneRep = false, false, false
	var bad []string
	fmt.Printf("%-15s %-22s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	for i := range workloads {
		w := &workloads[i]
		if only != "" && w.name != only {
			continue
		}
		a, err := measure(w, cfg)
		if err != nil {
			return err
		}
		b, err := measure(w, cfg)
		if err != nil {
			return err
		}
		if n := a.report.OpsFailed + b.report.OpsFailed; n > 0 {
			bad = append(bad, fmt.Sprintf("%s: %d failed operations", w.name, n))
		}
		if a.report.SimFingerprint != b.report.SimFingerprint {
			bad = append(bad, w.name+": sim_fingerprint differs between two runs at one seed")
		}
		for _, d := range endToEnd {
			va, vb := a.values[d.name].v, b.values[d.name].v
			diff := math.Abs(vb-va) / math.Abs(va)
			bound := bounds[d.name]
			if strings.HasPrefix(d.name, "sim_") {
				bound = 0
			}
			mark := ""
			if diff > bound {
				mark = "  over"
				bad = append(bad, fmt.Sprintf("%s %s: %.4f > %.4f", w.name, d.name, diff, bound))
			}
			fmt.Printf("%-15s %-22s %14.6g %14.6g %8.4f %6.2f%s\n", w.name, d.name, va, vb, diff, bound, mark)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}
