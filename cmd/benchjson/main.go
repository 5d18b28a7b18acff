// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON document on stdout, so CI can archive a perf
// trajectory (ns/op, allocs/op, B/op and custom b.ReportMetric units) per
// benchmark across PRs:
//
//	go test -run '^$' -bench 'SweepWorkers|AllocsPerSend' -benchtime 1x -benchmem . \
//	  | go run ./cmd/benchjson > BENCH_sweep.json
//
// With -baseline old.json the emitted document also carries per-benchmark
// deltas against the baseline report (vs_baseline: percent change of
// ns/op, allocs/op and B/op, matched by benchmark name), and the command
// exits nonzero when any benchmark regresses its allocs_per_op by more
// than -max-alloc-regress percent (default 20). Allocation counts are
// deterministic, so CI gates on them rather than on noisy wall-clock:
//
//	go run ./cmd/benchjson -baseline BENCH_sweep.json < bench.out > BENCH_new.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the benchmark name including the sub-benchmark path but
	// with the machine-dependent -GOMAXPROCS suffix stripped (e.g.
	// "BenchmarkSweepWorkers/workers=04"), so entries from different
	// machines match by name.
	Name string `json:"name"`
	// Gomaxprocs is the stripped -N suffix (0 if the line had none).
	Gomaxprocs int `json:"gomaxprocs,omitempty"`
	// Params holds the key=value sub-benchmark path segments (e.g.
	// "BenchmarkChaosTable/cond=partition-heal/proto=lumiere" →
	// {"cond": "partition-heal", "proto": "lumiere"}), so structured
	// sweeps like the chaos table stay machine-readable rows without
	// name parsing downstream. Segments without "=" are left in Name
	// only.
	Params map[string]string `json:"params,omitempty"`
	// Iterations is the measured iteration count (b.N).
	Iterations int64 `json:"iterations"`
	// NsPerOp is wall-clock nanoseconds per iteration.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp/BytesPerOp are present with -benchmem or
	// b.ReportAllocs (nil otherwise).
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	// Metrics holds custom b.ReportMetric units (e.g. "sweep_ms").
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// VsBaseline holds percent deltas against a -baseline report's
	// benchmark of the same Name (absent without -baseline or when the
	// baseline lacks the benchmark).
	VsBaseline *Delta `json:"vs_baseline,omitempty"`
}

// Delta is the percent change of one benchmark against the baseline:
// 100·(new−old)/old per measure, present where both reports carry the
// measure.
type Delta struct {
	NsPerOpPct     *float64 `json:"ns_per_op_pct,omitempty"`
	AllocsPerOpPct *float64 `json:"allocs_per_op_pct,omitempty"`
	BytesPerOpPct  *float64 `json:"bytes_per_op_pct,omitempty"`
}

// Report is the emitted document.
type Report struct {
	// Context echoes the non-benchmark header lines go test prints
	// (goos, goarch, pkg, cpu) plus "gomaxprocs": the core count the
	// benchmarks ran with, recovered from the -GOMAXPROCS suffix
	// stripped off their names (go test omits the suffix exactly when
	// GOMAXPROCS is 1; a -cpu list yields e.g. "1,2,4"). Without it a
	// flat BenchmarkSweepWorkers row cannot tell a one-core runner from
	// a scaling bug.
	Context map[string]string `json:"context,omitempty"`
	// Benchmarks holds one entry per benchmark line, in input order.
	Benchmarks []Benchmark `json:"benchmarks"`
}

// parse consumes go test -bench output and collects benchmark lines and
// header context. Unrecognized lines are ignored.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{Context: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseBenchLine(line)
			if ok {
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		case strings.HasPrefix(line, "goos:"),
			strings.HasPrefix(line, "goarch:"),
			strings.HasPrefix(line, "pkg:"),
			strings.HasPrefix(line, "cpu:"):
			if k, v, found := strings.Cut(line, ":"); found {
				rep.Context[k] = strings.TrimSpace(v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if procs := procsSeen(rep.Benchmarks); procs != "" {
		rep.Context["gomaxprocs"] = procs
	}
	if len(rep.Context) == 0 {
		rep.Context = nil
	}
	return rep, nil
}

// procsSeen lists the distinct GOMAXPROCS values of the parsed lines in
// order of first appearance, comma-separated. A line without a suffix
// ran at GOMAXPROCS=1.
func procsSeen(bs []Benchmark) string {
	var seen []string
	for _, b := range bs {
		p := strconv.Itoa(max(b.Gomaxprocs, 1))
		if !slices.Contains(seen, p) {
			seen = append(seen, p)
		}
	}
	return strings.Join(seen, ",")
}

// parseBenchLine parses one result line of the form
//
//	BenchmarkName-8  10  123 ns/op  4 B/op  2 allocs/op  1.5 custom_unit
//
// i.e. name, iteration count, then (value, unit) pairs.
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	name, procs := splitProcsSuffix(fields[0])
	b := Benchmark{Name: name, Gomaxprocs: procs, Iterations: iters, Params: parseParams(name)}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = val
		case "allocs/op":
			v := val
			b.AllocsPerOp = &v
		case "B/op":
			v := val
			b.BytesPerOp = &v
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = val
		}
	}
	return b, true
}

// parseParams extracts key=value sub-benchmark path segments from a
// benchmark name. Returns nil when no segment parses.
func parseParams(name string) map[string]string {
	segs := strings.Split(name, "/")
	var params map[string]string
	for _, seg := range segs[1:] {
		k, v, found := strings.Cut(seg, "=")
		if !found || k == "" {
			continue
		}
		if params == nil {
			params = map[string]string{}
		}
		params[k] = v
	}
	return params
}

// splitProcsSuffix strips go test's trailing -GOMAXPROCS from a
// benchmark name ("BenchmarkX-8" → "BenchmarkX", 8). Names without a
// numeric suffix pass through with procs 0.
func splitProcsSuffix(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 0
	}
	procs, err := strconv.Atoi(name[i+1:])
	if err != nil || procs <= 0 {
		return name, 0
	}
	return name[:i], procs
}

// pct returns 100·(new−old)/old, or nil when either side is missing or
// old is zero (no meaningful ratio).
func pct(newV, oldV *float64) *float64 {
	if newV == nil || oldV == nil || *oldV == 0 {
		return nil
	}
	p := 100 * (*newV - *oldV) / *oldV
	return &p
}

// diffAgainst annotates every benchmark of rep that the baseline also
// carries with its percent deltas. It returns the benchmarks whose
// allocs_per_op regressed by more than maxAllocRegress percent, and the
// baseline benchmarks absent from the new run — also a gate failure:
// a renamed benchmark or a drifted -bench regex would otherwise turn
// the regression gate into a silent no-op (intentional removals are
// accompanied by a regenerated baseline in the same change).
func diffAgainst(rep, baseline *Report, maxAllocRegress float64) (regressed, missing []string) {
	base := make(map[string]*Benchmark, len(baseline.Benchmarks))
	for i := range baseline.Benchmarks {
		base[baseline.Benchmarks[i].Name] = &baseline.Benchmarks[i]
	}
	matched := make(map[string]bool, len(rep.Benchmarks))
	for i := range rep.Benchmarks {
		b := &rep.Benchmarks[i]
		old, ok := base[b.Name]
		if !ok {
			continue
		}
		matched[b.Name] = true
		ns := b.NsPerOp
		oldNs := old.NsPerOp
		d := &Delta{
			NsPerOpPct:     pct(&ns, &oldNs),
			AllocsPerOpPct: pct(b.AllocsPerOp, old.AllocsPerOp),
			BytesPerOpPct:  pct(b.BytesPerOp, old.BytesPerOp),
		}
		b.VsBaseline = d
		if d.AllocsPerOpPct != nil && *d.AllocsPerOpPct > maxAllocRegress {
			regressed = append(regressed, fmt.Sprintf("%s: allocs/op %+.1f%% (%.0f -> %.0f)",
				b.Name, *d.AllocsPerOpPct, *old.AllocsPerOp, *b.AllocsPerOp))
		}
	}
	for i := range baseline.Benchmarks {
		if name := baseline.Benchmarks[i].Name; !matched[name] {
			missing = append(missing, name)
		}
	}
	return regressed, missing
}

func main() {
	var (
		baselinePath    = flag.String("baseline", "", "baseline report to diff against (a prior benchjson output)")
		maxAllocRegress = flag.Float64("max-alloc-regress", 20, "with -baseline: max tolerated allocs_per_op regression in percent before exiting nonzero")
	)
	flag.Parse()

	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	var regressed, missing []string
	if *baselinePath != "" {
		raw, err := os.ReadFile(*baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		var baseline Report
		if err := json.Unmarshal(raw, &baseline); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: parse baseline %s: %v\n", *baselinePath, err)
			os.Exit(1)
		}
		regressed, missing = diffAgainst(rep, &baseline, *maxAllocRegress)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fail := false
	if len(regressed) > 0 {
		fail = true
		fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed allocs_per_op by more than %.0f%% vs %s:\n",
			len(regressed), *maxAllocRegress, *baselinePath)
		for _, r := range regressed {
			fmt.Fprintln(os.Stderr, "  "+r)
		}
	}
	if len(missing) > 0 {
		fail = true
		fmt.Fprintf(os.Stderr, "benchjson: %d baseline benchmark(s) missing from this run (renamed, or the -bench pattern drifted?); regenerate %s if intentional:\n",
			len(missing), *baselinePath)
		for _, m := range missing {
			fmt.Fprintln(os.Stderr, "  "+m)
		}
	}
	if fail {
		os.Exit(2)
	}
}
