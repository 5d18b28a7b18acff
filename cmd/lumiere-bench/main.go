// Command lumiere-bench regenerates every table and figure of the paper
// (see DESIGN.md §4 for the experiment index and EXPERIMENTS.md for the
// recorded results). Text tables go to stdout; pass -csv DIR to also
// write machine-readable CSVs. The sweeps fan out across a worker pool
// (-workers, default all CPUs); results are byte-identical at any worker
// count because every cell's seed derives from (-seed, cell index).
//
//	lumiere-bench             # quick sweep (minutes)
//	lumiere-bench -full       # full sweep including n=61 and the massive-n table (-maxn caps it)
//	lumiere-bench -workers 1  # serial reference run
//	lumiere-bench -chaos      # chaos suite only (fault conditions + conformance)
//	lumiere-bench -attack     # attack suite only (adaptive strategies + word complexity)
//	lumiere-bench -smr        # SMR suite only (throughput/commit-latency + under-attack tables)
//	lumiere-bench -wan        # WAN suite only (topology degradation + clock-drift tolerance tables)
//	lumiere-bench -redteam    # adversarial search only (searched worst-case frontier)
//	lumiere-bench -redteam -frontier FRONTIER.json   # regenerate the committed frontier artifact
//	lumiere-bench -n 4096     # massive-n scaling table only, at one system size
//	lumiere-bench -largen -maxn 4096   # massive-n scaling table over the whole axis
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"lumiere/internal/adversary"
	"lumiere/internal/harness"
	"lumiere/internal/redteam"
)

func main() {
	// All failure paths return through realMain so the profile-writing
	// defers (-cpuprofile/-memprofile) always flush before the process
	// exits.
	os.Exit(realMain())
}

func realMain() int {
	var (
		full       = flag.Bool("full", false, "run the full sweep (larger n; slower)")
		seed       = flag.Int64("seed", 42, "randomness seed")
		csvDir     = flag.String("csv", "", "directory for CSV output (optional)")
		workers    = flag.Int("workers", runtime.NumCPU(), "sweep worker-pool size")
		progress   = flag.Bool("progress", false, "print per-cell sweep progress to stderr")
		chaos      = flag.Bool("chaos", false, "run only the chaos suite: fault-condition table + chaos conformance sweep")
		attack     = flag.Bool("attack", false, "run only the attack suite: adaptive-strategy table + word-complexity tables")
		smr        = flag.Bool("smr", false, "run only the SMR suite: throughput/commit-latency table + throughput under attack")
		wan        = flag.Bool("wan", false, "run only the WAN suite: topology graceful-degradation table + clock-drift tolerance table")
		redTeam    = flag.Bool("redteam", false, "run only the adversarial search suite: searched worst-case frontier per protocol × objective")
		frontier   = flag.String("frontier", "", "with -redteam: write the searched frontier artifact (FRONTIER.json) to this path")
		largen     = flag.Bool("largen", false, "run only the massive-n scaling table over the default axis (capped by -maxn)")
		largeN     = flag.Int("n", 0, "run the massive-n scaling table at this single system size (needs n ≥ 4; 0 = default axis)")
		maxN       = flag.Int("maxn", 1024, "cap the massive-n scaling axis at this size (4096 reproduces the recorded table)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file (go tool pprof)")
		memprofile = flag.String("memprofile", "", "write an allocation profile taken at exit to this file (go tool pprof)")
	)
	flag.Parse()

	// Reject flag combinations that would otherwise be silently ignored:
	// the suites are exclusive (only the first would run), -n sizes the
	// massive-n table that four of them never print, and -frontier is
	// written by the red-team suite alone.
	var suites []string
	for _, s := range []struct {
		name string
		on   bool
	}{{"-wan", *wan}, {"-redteam", *redTeam}, {"-smr", *smr}, {"-chaos", *chaos}, {"-attack", *attack}, {"-largen", *largen}} {
		if s.on {
			suites = append(suites, s.name)
		}
	}
	if len(suites) > 1 {
		fmt.Fprintf(os.Stderr, "%s are exclusive: pick one suite\n", strings.Join(suites, " and "))
		return 2
	}
	if *largeN != 0 && (*wan || *redTeam || *smr || *chaos) {
		fmt.Fprintf(os.Stderr, "-n with %s: that suite never prints the massive-n table\n", suites[0])
		return 2
	}
	if *frontier != "" && !*redTeam {
		fmt.Fprintln(os.Stderr, "-frontier needs -redteam: only the red-team suite writes a frontier artifact")
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "create %s: %v\n", *cpuprofile, err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "start cpu profile: %v\n", err)
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
				fmt.Fprintf(os.Stderr, "create %s: %v\n", *memprofile, err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "write mem profile: %v\n", err)
			}
		}()
	}

	fs := []int{1, 3, 5, 10}
	if *full {
		fs = append(fs, 20)
	}
	evF := 5
	fas := []int{0, 1, 2, 3, 5}

	// The massive-n axis: a single explicit -n, or the default sizes
	// capped by -maxn. Sizes below 4 cannot tolerate a single fault
	// (n ≥ 3f+1 with f = ⌊(n−1)/3⌋ ≥ 1) — reject them up front rather
	// than panicking inside the harness.
	largeNs := []int{}
	if *largeN != 0 {
		if *largeN < 4 {
			fmt.Fprintf(os.Stderr, "-n %d: need n ≥ 4 (n ≥ 3f+1 with f ≥ 1; f = (n-1)/3)\n", *largeN)
			return 1
		}
		largeNs = []int{*largeN}
	} else {
		for _, n := range harness.LargeNSizes {
			if n <= *maxN {
				largeNs = append(largeNs, n)
			}
		}
	}

	opts := harness.SweepOptions{Workers: *workers}
	if *progress {
		opts.Progress = func(done, total int, cell *harness.SweepCell) {
			fmt.Fprintf(os.Stderr, "  [%3d/%3d] %-28s %8v\n", done, total, cell.Scenario.Name, cell.Elapsed.Round(time.Millisecond))
		}
	}

	emit := func(name string, t *harness.Table) {
		fmt.Println(t.Render())
		if *csvDir != "" {
			path := filepath.Join(*csvDir, name+".csv")
			if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "write %s: %v\n", path, err)
			}
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "mkdir %s: %v\n", *csvDir, err)
			return 1
		}
	}

	start := time.Now()
	if *wan {
		fmt.Printf("WAN suite (seed %d, %d workers)\n\n", *seed, *workers)
		wanF := 1
		if *full {
			wanF = 2
		}
		emit("wan_topology", harness.WANSweep(wanF, *seed, opts).Table())
		drift := harness.DriftSweep(wanF, harness.DriftPPMAxis, *seed, opts)
		emit("wan_drift", drift.Table())
		if !drift.InModelClean() {
			fmt.Fprintln(os.Stderr, "drift sweep NOT clean: an in-model drift magnitude violated Lemma 5.1-5.3")
			return 1
		}
		fmt.Printf("done in %v\n", time.Since(start).Round(time.Second))
		return 0
	}
	if *redTeam {
		fmt.Printf("red-team suite (seed %d, %d workers)\n\n", *seed, *workers)
		cfg := redteam.Config{F: 2, Seed: *seed, Workers: *workers}
		if *progress {
			cfg.Progress = func(line string) { fmt.Fprintln(os.Stderr, "  "+line) }
		}
		fr := redteam.SearchFrontier(cfg)
		emit("redteam_frontier", fr.Table())
		if *frontier != "" {
			if err := fr.WriteFile(*frontier); err != nil {
				fmt.Fprintf(os.Stderr, "write %s: %v\n", *frontier, err)
				return 1
			}
			fmt.Printf("wrote %s\n", *frontier)
		}
		if !fr.AllDecided() {
			fmt.Fprintln(os.Stderr, "red-team search has stalled frontier cells: a model-legal scenario defeated a protocol")
			return 1
		}
		fmt.Printf("done in %v\n", time.Since(start).Round(time.Second))
		return 0
	}
	if *largen || (*largeN != 0 && !*attack) {
		fmt.Printf("massive-n suite (seed %d, %d workers)\n\n", *seed, *workers)
		emit("largen_words", harness.LargeNWordsTable(largeNs, *seed, opts))
		fmt.Printf("done in %v\n", time.Since(start).Round(time.Second))
		return 0
	}
	if *smr {
		fmt.Printf("SMR suite (seed %d, %d workers)\n\n", *seed, *workers)
		smrF := 1
		if *full {
			smrF = 3
		}
		emit("smr_throughput", harness.ThroughputSweep(smrF, *seed, opts).Table())
		emit("smr_throughput_attack", harness.ThroughputUnderAttackSweep(smrF, adversary.AttackViewDesync, *seed, opts).Table())
		fmt.Printf("done in %v\n", time.Since(start).Round(time.Second))
		return 0
	}
	if *chaos {
		fmt.Printf("chaos suite (seed %d, %d workers)\n\n", *seed, *workers)
		chaosF := 3
		cells := 24
		if *full {
			chaosF = 5
			cells = 48
		}
		emit("chaos_table", harness.ChaosTable(chaosF, *seed, opts))
		rep := harness.ChaosSweep(cells, *seed, opts)
		emit("chaos_conformance", rep.Table())
		if !rep.Conformant() {
			fmt.Fprintf(os.Stderr, "chaos sweep NOT conformant: %d problems\n", rep.Problems)
			return 1
		}
		fmt.Printf("all %d chaos cells conformant; done in %v\n", len(rep.Cells), time.Since(start).Round(time.Second))
		return 0
	}
	if *attack {
		fmt.Printf("attack suite (seed %d, %d workers)\n\n", *seed, *workers)
		attackF := 1
		fas := []int{0, 1, 2, 3}
		if *full {
			attackF = 3
		}
		rep := harness.AttackSweep(attackF, *seed, opts)
		emit("attack_table", rep.Table())
		if !rep.AllDecided() {
			fmt.Fprintln(os.Stderr, "attack sweep has stalled cells: a model-legal attack defeated a protocol")
			return 1
		}
		emit("eventual_words", harness.EventualWordsTable(3, fas, *seed, opts))
		emit("word_scaling", harness.WordScalingTable(fs, 1, *seed, opts))
		if *full && len(largeNs) > 0 {
			emit("largen_words", harness.LargeNWordsTable(largeNs, *seed, opts))
		}
		fmt.Printf("all %d attack cells decided after GST; done in %v\n", len(rep.Cells), time.Since(start).Round(time.Second))
		return 0
	}
	fmt.Printf("regenerating the paper's evaluation (seed %d, %d workers)\n\n", *seed, *workers)

	comm, lat := harness.Table1WorstCase(fs, *seed, opts)
	emit("table1_worst_comm", comm)
	emit("table1_worst_latency", lat)

	evComm, evLat := harness.Table1Eventual(evF, fas, *seed, opts)
	emit("table1_eventual_comm", evComm)
	emit("table1_eventual_latency", evLat)

	scaling := harness.EventualScalingData(fs, 1, *seed, opts)
	emit("eventual_scaling", harness.EventualScalingTable(scaling, fs, 1))
	fmt.Println(harness.EventualScalingPlot(scaling))
	emit("figure1_stalls", harness.Figure1Table(fs, *seed, opts))
	emit("responsiveness", harness.ResponsivenessTable(3, *seed, opts))
	emit("heavy_syncs", harness.HeavySyncTable(3, *seed, opts))

	if *full && len(largeNs) > 0 {
		emit("largen_words", harness.LargeNWordsTable(largeNs, *seed, opts))
	}

	g := harness.GapShrinkage(3, *seed)
	fmt.Printf("== §3.5 honest-gap shrinkage under the desync adversary (n=10) ==\n")
	fmt.Printf("Γ=%v  pre-GST max: hg_{f+1}=%v (never exceeds Γ — Lemma 5.9), hg_{2f+1}=%v\n",
		g.Gamma, g.MaxGapPre, g.MaxWideGapPre)
	fmt.Printf("time to hg_{f+1} ≤ Γ after GST: %v (converged=%v)\n", g.TimeToBelow, g.Converged)
	fmt.Printf("steady-state max: hg_{f+1}=%v, hg_{2f+1}=%v\n\n", g.MaxGapSteady, g.MaxWideGapSteady)

	adv := harness.AdversarialSuccess(3, *seed)
	fmt.Printf("== §3.5 adversarial success criterion (n=10, f late-proposing Byzantine leaders) ==\n")
	fmt.Printf("decisions=%d  mean gap=%v  max gap=%v  heavy syncs=%d\n\n",
		adv.Decisions, adv.MeanGap.Round(time.Millisecond), adv.MaxGap.Round(time.Millisecond), adv.HeavySync)

	w, wo := harness.DeltaWaitAblation(3, *seed)
	fmt.Printf("== §3.5 Δ-wait ablation (n=10, fast QC bursts) ==\n")
	fmt.Printf("heavy syncs after warmup: with Δ-wait=%d, without=%d\n\n", w, wo)

	fmt.Printf("done in %v\n", time.Since(start).Round(time.Second))
	return 0
}
