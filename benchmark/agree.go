package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// contract is the part of BENCHMARK.json the agreement check reads.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAgree runs the whole set twice on the same code and seed and fails
// if any end-to-end metric on any workload differs between the two runs
// by more than its bound: the benchmark must agree with itself before it
// can disagree with a change.
func runAgree(cfg config) error {
	data, err := os.ReadFile(filepath.Join(cfg.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	disagree := 0
	fmt.Printf("%-12s %-28s %14s %14s %8s %8s\n", "workload", "metric", "first", "second", "differ", "bound")
	for _, w := range c.Workloads {
		var runs [2]*result
		for i := range runs {
			if runs[i], err = runOnce(self, cfg, w.Name, c.RunSeconds); err != nil {
				return fmt.Errorf("%s, run %d: %w", w.Name, i+1, err)
			}
			if !runs[i].Correct || runs[i].Failed > 0 {
				return fmt.Errorf("%s, run %d: correct=%v, %d of %d failed", w.Name, i+1, runs[i].Correct, runs[i].Failed, runs[i].Attempted)
			}
		}
		for _, e := range c.EndToEnd {
			a, b := runs[0].Metrics[e.Name].Value, runs[1].Metrics[e.Name].Value
			diff := math.Abs(a-b) / math.Min(math.Abs(a), math.Abs(b))
			verdict := ""
			if !(diff <= e.Bound) {
				verdict = "  DISAGREE"
				disagree++
			}
			fmt.Printf("%-12s %-28s %14.4f %14.4f %7.1f%% %7.1f%%%s\n", w.Name, e.Name, a, b, 100*diff, 100*e.Bound, verdict)
		}
	}
	if disagree > 0 {
		return fmt.Errorf("%d metric/workload pairs differ by more than their bound between two runs of the same code", disagree)
	}
	return nil
}

// runOnce runs one end-to-end measurement as a child and decodes the
// result object on its last line of output.
func runOnce(self string, cfg config, workload string, seconds int) (*result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(cfg.seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Dir = cfg.benchDir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = bytes.Clone(sc.Bytes())
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("last line of output is not a result: %w", err)
	}
	return &res, nil
}
