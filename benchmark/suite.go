package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// contractPath is the benchmark's contract, read from the directory the
// benchmark is run in (the repository root).
const contractPath = "BENCHMARK.json"

// contract is the part of BENCHMARK.json the suite runner uses.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadContract() (*contract, error) {
	b, err := os.ReadFile(contractPath)
	if err != nil {
		return nil, fmt.Errorf("read contract: %w", err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", contractPath, err)
	}
	return &c, nil
}

// runChild runs one workload in its own process, so that peak memory,
// GC state and warm caches of one workload cannot leak into the next,
// and parses the result line it prints last.
func runChild(w string, opt options) (resultLine, error) {
	var res resultLine
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	trace := "0"
	if opt.Trace {
		trace = "1"
	}
	cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatInt(opt.Seed, 10),
		"--seconds", strconv.FormatFloat(opt.Seconds, 'g', -1, 64), "--trace", trace)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	fmt.Print(string(out))
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		if runErr != nil {
			return res, fmt.Errorf("%s: %w", w, runErr)
		}
		return res, fmt.Errorf("%s: no result line: %w", w, err)
	}
	return res, nil
}

// runSet runs every workload once and returns the results by workload.
func runSet(opt options) (map[string]resultLine, bool) {
	ok := true
	set := make(map[string]resultLine, len(workloads))
	for _, w := range workloads {
		res, err := runChild(w.Name, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			ok = false
			continue
		}
		if !res.Correct || res.Failed > 0 {
			fmt.Printf("FAIL %s: correct=%v failed=%d of %d\n", w.Name, res.Correct, res.Failed, res.Attempted)
			ok = false
		}
		set[w.Name] = res
		fmt.Println()
	}
	return set, ok
}

// runSuite runs all workloads (twice with repeat, comparing the two sets
// against each end-to-end metric's own bound) and returns the exit code.
func runSuite(opt options, repeat bool) int {
	first, ok := runSet(opt)
	if !repeat {
		if !ok {
			return 1
		}
		return 0
	}
	if opt.Trace {
		fmt.Fprintln(os.Stderr, "benchmark: --repeat compares end-to-end metrics; run it with --trace 0")
		return 2
	}
	c, err := loadContract()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	second, ok2 := runSet(opt)
	ok = ok && ok2

	fmt.Printf("%-16s %-20s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for _, w := range workloads {
		a, b := first[w.Name], second[w.Name]
		for _, m := range c.EndToEnd {
			va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "  OVER BOUND"
				ok = false
			}
			fmt.Printf("%-16s %-20s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", w.Name, m.Name, va, vb, 100*worse, 100*m.Bound, verdict)
		}
	}
	if !ok {
		return 1
	}
	return 0
}
