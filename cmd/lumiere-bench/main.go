// Command lumiere-bench regenerates every table and figure of the paper:
// it runs the sections of eval.Evaluation that belong to one suite
// (EXPERIMENTS.md holds the recorded results); the red-team suite's
// section also prints the searched frontier's JSON artifact, or writes
// it to -frontier. Text tables go to stdout;
// pass -csv DIR to also write machine-readable CSVs. The sweeps fan out
// across a worker pool (-workers, default all CPUs); results are
// byte-identical at any worker count because every cell's seed derives
// from (-seed, cell index). A section whose outputs show a model-legal
// scenario defeating a protocol makes the run exit 1; a usage error
// exits 2.
//
//	lumiere-bench                 # the paper suite: Table 1, Figure 1, responsiveness, heavy syncs, §3.5 (minutes)
//	lumiere-bench -full           # the same at full scale (n up to 61)
//	lumiere-bench -workers 1      # serial reference run
//	lumiere-bench -suite chaos    # fault conditions + chaos conformance
//	lumiere-bench -suite attack   # adaptive-strategy attack table
//	lumiere-bench -suite smr      # SMR throughput/commit latency + throughput under attack
//	lumiere-bench -suite wan      # WAN topology degradation + clock-drift tolerance
//	lumiere-bench -suite redteam  # adversarial search: searched worst-case frontier
//	lumiere-bench -suite redteam -frontier FRONTIER.json   # regenerate the committed frontier artifact
//	lumiere-bench -suite largen -n 4096      # massive-n scaling table at one system size
//	lumiere-bench -suite largen -maxn 4096   # massive-n scaling table over the whole axis
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"lumiere/internal/eval"
	"lumiere/internal/harness"
)

// suites lists every valid -suite value with the line that opens its
// output.
var suites = []struct {
	name    eval.Suite
	heading string
}{
	{eval.SuitePaper, "regenerating the paper's evaluation"},
	{eval.SuiteChaos, "chaos suite"},
	{eval.SuiteAttack, "attack suite"},
	{eval.SuiteSMR, "SMR suite"},
	{eval.SuiteWAN, "WAN suite"},
	{eval.SuiteLargeN, "massive-n suite"},
	{eval.SuiteRedTeam, "red-team suite"},
}

func main() {
	// All failure paths return through realMain so the profile-writing
	// defers (-cpuprofile/-memprofile) always flush before the process
	// exits.
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("lumiere-bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		full       = fl.Bool("full", false, "run the suite at full scale (larger n; slower; not for largen or redteam)")
		seed       = fl.Int64("seed", 42, "randomness seed")
		csvDir     = fl.String("csv", "", "directory for CSV output (optional)")
		workers    = fl.Int("workers", runtime.NumCPU(), "sweep worker-pool size")
		progress   = fl.Bool("progress", false, "print per-cell sweep progress to stderr")
		suiteName  = fl.String("suite", string(eval.SuitePaper), "the suite to run: "+suiteNames())
		frontier   = fl.String("frontier", "", "with -suite redteam: write the searched frontier artifact (FRONTIER.json) to this path")
		largeN     = fl.Int("n", 0, "with -suite largen: run the massive-n table at this single system size (needs n ≥ 4; 0 = default axis)")
		maxN       = fl.Int("maxn", 1024, "with -suite largen: cap the massive-n axis at this size (4096 reproduces the recorded table)")
		cpuprofile = fl.String("cpuprofile", "", "write a CPU profile of the sweep to this file (go tool pprof)")
		memprofile = fl.String("memprofile", "", "write an allocation profile taken at exit to this file (go tool pprof)")
	)
	if err := fl.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// Reject invocations that would otherwise be silently ignored: -n
	// and -maxn size a table only the largen suite prints, and -maxn
	// caps the axis -n replaces; -frontier is written by the red-team
	// suite alone; -full changes neither the massive-n axis (the same at
	// both scales) nor the red-team search (fixed at f=2). Sizes below 4
	// cannot tolerate a single fault (n ≥ 3f+1 with f = ⌊(n−1)/3⌋ ≥ 1).
	set := map[string]bool{}
	fl.Visit(func(f *flag.Flag) { set[f.Name] = true })
	suite := eval.Suite(*suiteName)
	heading := ""
	for _, s := range suites {
		if s.name == suite {
			heading = s.heading
		}
	}
	switch {
	case heading == "":
		fmt.Fprintf(stderr, "unknown -suite %q: valid suites are %s\n", suite, suiteNames())
		return 2
	case *largeN != 0 && suite != eval.SuiteLargeN:
		fmt.Fprintf(stderr, "-n with -suite %s: only -suite largen prints the massive-n table\n", suite)
		return 2
	case *largeN != 0 && *largeN < 4:
		fmt.Fprintf(stderr, "-n %d: need n ≥ 4 (n ≥ 3f+1 with f ≥ 1; f = (n-1)/3)\n", *largeN)
		return 2
	case set["maxn"] && suite != eval.SuiteLargeN:
		fmt.Fprintf(stderr, "-maxn with -suite %s: only -suite largen prints the massive-n table\n", suite)
		return 2
	case set["maxn"] && *largeN != 0:
		fmt.Fprintln(stderr, "-maxn beside -n: -n runs one size, so there is no axis to cap")
		return 2
	case *full && (suite == eval.SuiteLargeN || suite == eval.SuiteRedTeam):
		fmt.Fprintf(stderr, "-full with -suite %s: the suite runs the same at both scales\n", suite)
		return 2
	case *frontier != "" && suite != eval.SuiteRedTeam:
		fmt.Fprintln(stderr, "-frontier needs -suite redteam: only the red-team suite writes a frontier artifact")
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "create %s: %v\n", *cpuprofile, err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "start cpu profile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		// No early exit in here: it would skip the CPU-profile defers
		// registered above and leave that profile unflushed.
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "create %s: %v\n", *memprofile, err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(stderr, "write mem profile: %v\n", err)
			}
		}()
	}

	sc := eval.DefaultScale
	if *full {
		sc = eval.FullScale
	}
	if *largeN != 0 {
		sc.LargeNs = []int{*largeN}
	} else {
		var capped []int
		for _, n := range sc.LargeNs {
			if n <= *maxN {
				capped = append(capped, n)
			}
		}
		sc.LargeNs = capped
	}

	opts := harness.SweepOptions{Workers: *workers}
	if *progress {
		opts.Progress = func(done, total int, cell *harness.SweepCell) {
			fmt.Fprintf(stderr, "  [%3d/%3d] %-28s %8v\n", done, total, cell.Scenario.Name, cell.Elapsed.Round(time.Millisecond))
		}
	}

	emit := func(o eval.Output) {
		fmt.Fprintln(stdout, o.Render())
		if *csvDir != "" && o.Table != nil {
			path := filepath.Join(*csvDir, o.Name+".csv")
			if err := os.WriteFile(path, []byte(o.Table.CSV()), 0o644); err != nil {
				fmt.Fprintf(stderr, "write %s: %v\n", path, err)
			}
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "mkdir %s: %v\n", *csvDir, err)
			return 1
		}
	}

	start := time.Now()
	fmt.Fprintf(stdout, "%s (seed %d, %d workers)\n\n", heading, *seed, *workers)
	failed := false
	for _, sec := range eval.Evaluation {
		if sec.Suite != suite {
			continue
		}
		outs, problem := sec.Run(sc, *seed, opts)
		for _, o := range outs {
			if *frontier == "" || o.Name != eval.FrontierOutput {
				emit(o)
				continue
			}
			if err := os.WriteFile(*frontier, []byte(o.Text), 0o644); err != nil {
				fmt.Fprintf(stderr, "write %s: %v\n", *frontier, err)
				return 1
			}
			fmt.Fprintf(stdout, "wrote %s\n", *frontier)
		}
		if problem != "" {
			fmt.Fprintf(stderr, "%s: %s\n", sec.Key, problem)
			failed = true
		}
	}
	if failed {
		return 1
	}
	fmt.Fprintf(stdout, "done in %v\n", time.Since(start).Round(time.Second))
	return 0
}

// suiteNames lists the valid -suite values.
func suiteNames() string {
	names := make([]string, len(suites))
	for i, s := range suites {
		names[i] = string(s.name)
	}
	return strings.Join(names, ", ")
}
