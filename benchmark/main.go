// Command benchmark is the repository's benchmark: six workloads over
// the two runtimes (the discrete-event simulator and the TCP cluster),
// the end-to-end metrics a user of either would see, and per-layer
// metrics taken by timing calls into each layer's public functions from
// outside. See README.md in this directory for why each workload and
// metric is here; BENCHMARK.json at the repository root is the contract.
//
//	bash benchmark/run.sh                       # all workloads, end-to-end metrics
//	bash benchmark/run.sh --trace 1             # all workloads, per-layer metrics
//	bash benchmark/run.sh --repeat              # two sets, compared against the bounds
//	bash benchmark/run.sh --workload tcp-churn-n4 --seed 7 --seconds 10 --trace 0
//
// With --workload the last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// Protocol timing shared by every workload: Δ is the model's message
// delay bound, δ the delay actually injected on every link (simulated
// links and, through nettcp's conditioner, loopback sockets).
const (
	bigDelta   = 50 * time.Millisecond
	smallDelta = 5 * time.Millisecond
)

// options are the per-run inputs the driver passes.
type options struct {
	Seed    int64
	Seconds float64
	Trace   bool
}

// outcome is what one workload run reports.
type outcome struct {
	Attempted, Failed int64
	// Problems are correctness failures; any makes the run incorrect.
	Problems []string
	// Values holds every metric the run measured, by name.
	Values map[string]float64
	// Notes are human-readable lines printed before the result.
	Notes []string
	// Pinned are the exact values golden.json fixes (golden.go).
	Pinned map[string]float64
}

func newOutcome() *outcome { return &outcome{Values: make(map[string]float64)} }

func (o *outcome) notef(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

func (o *outcome) problemf(format string, args ...any) {
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

// workloadDef is one named set of inputs.
type workloadDef struct {
	Name string
	Run  func(opt options) (*outcome, error)
}

var workloads = []workloadDef{
	{"sim-sync-n61", func(o options) (*outcome, error) { return runSimCell(simSyncN61, o) }},
	{"sim-sync-n1024", func(o options) (*outcome, error) { return runSimCell(simSyncN1024, o) }},
	{"sim-smr-n4", func(o options) (*outcome, error) { return runSimCell(simSMRN4, o) }},
	{"sim-sweep-eval", runSweepEval},
	{"tcp-steady-n7", func(o options) (*outcome, error) { return runTCP(tcpSteadyN7, o) }},
	{"tcp-churn-n4", func(o options) (*outcome, error) { return runTCP(tcpChurnN4, o) }},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricValue is one reported metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a --workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result selects the metric set the trace mode asks for. A missing or
// non-finite end-to-end metric is a problem: every workload reports all
// of them. A per-layer metric a workload's layers do not produce is 0.
func (o *outcome) result(trace bool) resultLine {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res := resultLine{Attempted: o.Attempted, Failed: o.Failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := o.Values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) || (!ok && !trace) {
			o.problemf("metric %s was not measured", d.Name)
			v = 0
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if res.Attempted < 1 {
		o.problemf("nothing was attempted")
		res.Attempted = 1
		res.Failed = 1
	}
	res.Correct = len(o.Problems) == 0
	return res
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print its result line (default: run all)")
		seed    = flag.Int64("seed", 42, "seed every input is generated from")
		seconds = flag.Float64("seconds", 10, "how long one run measures")
		trace   = flag.Int("trace", 0, "1 = boundary tracing on, report the per-layer metrics")
		repeat  = flag.Bool("repeat", false, "run the suite twice and fail if an end-to-end metric moves by more than its bound")
		update  = flag.Bool("update-golden", false, "rewrite golden.json from this run (sim workloads, seed 42)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark [--workload name] [--seed n] [--seconds s] [--trace 0|1] [--repeat] [--update-golden]")
		os.Exit(2)
	}
	opt := options{Seed: *seed, Seconds: *seconds, Trace: *trace == 1}
	if *name == "" {
		os.Exit(runSuite(opt, *repeat))
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	os.Exit(runOne(w, opt, *update))
}

// runOne runs one workload in this process and prints its result line.
func runOne(w *workloadDef, opt options, updateGolden bool) int {
	ctx := machineContext()
	fmt.Printf("# %s seed=%d seconds=%g trace=%v Δ=%s δ=%s\n# %s\n", w.Name, opt.Seed, opt.Seconds, opt.Trace, bigDelta, smallDelta, ctx)
	out, err := w.Run(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
		return 1
	}
	addHostMetrics(out)
	if !opt.Trace {
		if updateGolden {
			if err := updateGoldenFile(w.Name, opt.Seed, out); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 1
			}
		}
		checkGolden(w.Name, opt.Seed, out)
	}
	res := out.result(opt.Trace)
	for _, n := range out.Notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, p := range out.Problems {
		fmt.Printf("PROBLEM: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
