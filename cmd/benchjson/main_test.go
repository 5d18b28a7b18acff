package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: lumiere
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSweepWorkers/workers=01-8         	       1	1879162656 ns/op	      1879 sweep_ms	 5438104 B/op	   12345 allocs/op
BenchmarkAllocsPerSend-8                   	     200	      2988 ns/op	        30.00 sends/op	      30 B/op	       0 allocs/op
PASS
ok  	lumiere	12.3s
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkSweepWorkers/workers=01" || b.Gomaxprocs != 8 || b.Iterations != 1 {
		t.Fatalf("first = %+v", b)
	}
	if b.NsPerOp != 1879162656 {
		t.Fatalf("ns/op = %v", b.NsPerOp)
	}
	if b.AllocsPerOp == nil || *b.AllocsPerOp != 12345 {
		t.Fatalf("allocs/op = %v", b.AllocsPerOp)
	}
	if b.Metrics["sweep_ms"] != 1879 {
		t.Fatalf("metrics = %v", b.Metrics)
	}
	a := rep.Benchmarks[1]
	if a.Name != "BenchmarkAllocsPerSend" || a.Gomaxprocs != 8 {
		t.Fatalf("second = %+v", a)
	}
	if a.AllocsPerOp == nil || *a.AllocsPerOp != 0 {
		t.Fatalf("allocs/op = %v", a.AllocsPerOp)
	}
	if a.Metrics["sends/op"] != 30 {
		t.Fatalf("metrics = %v", a.Metrics)
	}
	if rep.Context["cpu"] == "" || rep.Context["goos"] != "linux" {
		t.Fatalf("context = %v", rep.Context)
	}
}

// TestContextGomaxprocs: the core count stripped off the benchmark names
// is kept in the report's context; go test prints no suffix at
// GOMAXPROCS=1, and a -cpu list runs each benchmark at several counts.
func TestContextGomaxprocs(t *testing.T) {
	for in, want := range map[string]string{
		sample:                    "8",
		"BenchmarkX 5 10 ns/op\n": "1",
		"BenchmarkX 5 10 ns/op\nBenchmarkX-2 5 10 ns/op\nBenchmarkX-4 5 9 ns/op\nBenchmarkY-2 5 10 ns/op\n": "1,2,4",
	} {
		rep, err := parse(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Context["gomaxprocs"]; got != want {
			t.Errorf("context.gomaxprocs = %q, want %q for\n%s", got, want, in)
		}
	}
}

func TestParseIgnoresGarbage(t *testing.T) {
	rep, err := parse(strings.NewReader("hello\nBenchmarkBad oops\nBenchmarkOK-2 5 10 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 || rep.Benchmarks[0].Name != "BenchmarkOK" || rep.Benchmarks[0].Gomaxprocs != 2 {
		t.Fatalf("benchmarks = %+v", rep.Benchmarks)
	}
}

// TestParseChaosRowShape pins the chaos table's benchmark row shape:
// cond/proto path segments become structured Params and the
// sync-latency metric stays a custom unit.
func TestParseChaosRowShape(t *testing.T) {
	const chaos = `BenchmarkChaosTable/cond=partition-heal/proto=lumiere-8  1  120000 ns/op  1.30 sync_delta
BenchmarkChaosTable/cond=churn/proto=basic-lumiere-8  1  130000 ns/op  13.50 sync_delta
`
	rep, err := parse(strings.NewReader(chaos))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Params["cond"] != "partition-heal" || b.Params["proto"] != "lumiere" {
		t.Fatalf("params = %v", b.Params)
	}
	if b.Metrics["sync_delta"] != 1.30 {
		t.Fatalf("metrics = %v", b.Metrics)
	}
	if c := rep.Benchmarks[1]; c.Params["cond"] != "churn" || c.Params["proto"] != "basic-lumiere" {
		t.Fatalf("params = %v", c.Params)
	}
}

func TestParseParams(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want map[string]string
	}{
		{"BenchmarkX", nil},
		{"BenchmarkX/sub", nil},
		{"BenchmarkX/f=3", map[string]string{"f": "3"}},
		{"BenchmarkX/cond=loss-40/proto=nk20", map[string]string{"cond": "loss-40", "proto": "nk20"}},
		{"BenchmarkX/plain/k=v", map[string]string{"k": "v"}},
		{"BenchmarkX/=v", nil},
	} {
		got := parseParams(tc.in)
		if len(got) != len(tc.want) {
			t.Errorf("parseParams(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for k, v := range tc.want {
			if got[k] != v {
				t.Errorf("parseParams(%q)[%q] = %q, want %q", tc.in, k, got[k], v)
			}
		}
	}
}

func TestSplitProcsSuffix(t *testing.T) {
	for _, tc := range []struct {
		in    string
		name  string
		procs int
	}{
		{"BenchmarkX-8", "BenchmarkX", 8},
		{"BenchmarkX", "BenchmarkX", 0},
		{"BenchmarkSweepWorkers/workers=01-4", "BenchmarkSweepWorkers/workers=01", 4},
		{"BenchmarkOdd-name", "BenchmarkOdd-name", 0},
	} {
		name, procs := splitProcsSuffix(tc.in)
		if name != tc.name || procs != tc.procs {
			t.Errorf("splitProcsSuffix(%q) = (%q, %d), want (%q, %d)", tc.in, name, procs, tc.name, tc.procs)
		}
	}
}

func fp(v float64) *float64 { return &v }

// TestDiffAgainst pins the -baseline diff mode: deltas are percent
// changes matched by name, missing measures and unmatched benchmarks
// produce no delta, and only allocs_per_op regressions beyond the
// threshold are reported.
func TestDiffAgainst(t *testing.T) {
	rep := &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 150, AllocsPerOp: fp(130), BytesPerOp: fp(2000)},
		{Name: "BenchmarkB", NsPerOp: 100, AllocsPerOp: fp(90)},
		{Name: "BenchmarkNew", NsPerOp: 50},
	}}
	baseline := &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: fp(100), BytesPerOp: fp(1000)},
		{Name: "BenchmarkB", NsPerOp: 100, AllocsPerOp: fp(100)},
		{Name: "BenchmarkGone", NsPerOp: 10, AllocsPerOp: fp(10)},
	}}
	regressed, missing := diffAgainst(rep, baseline, 20)
	a := rep.Benchmarks[0].VsBaseline
	if a == nil || *a.NsPerOpPct != 50 || *a.AllocsPerOpPct != 30 || *a.BytesPerOpPct != 100 {
		t.Fatalf("BenchmarkA deltas = %+v", a)
	}
	if b := rep.Benchmarks[1].VsBaseline; b == nil || *b.AllocsPerOpPct != -10 || b.BytesPerOpPct != nil {
		t.Fatalf("BenchmarkB deltas = %+v", b)
	}
	if rep.Benchmarks[2].VsBaseline != nil {
		t.Fatalf("BenchmarkNew unexpectedly matched: %+v", rep.Benchmarks[2].VsBaseline)
	}
	if len(regressed) != 1 || !strings.Contains(regressed[0], "BenchmarkA") {
		t.Fatalf("regressed = %v", regressed)
	}
	// A baseline benchmark the new run no longer carries is a gate
	// failure in its own right — a silent rename or -bench drift must
	// not turn the gate into a no-op.
	if len(missing) != 1 || missing[0] != "BenchmarkGone" {
		t.Fatalf("missing = %v", missing)
	}
	// A 30%% regression passes a 50%% threshold.
	rep.Benchmarks[0].VsBaseline = nil
	if r, _ := diffAgainst(rep, baseline, 50); len(r) != 0 {
		t.Fatalf("regressed at 50%% threshold = %v", r)
	}
}

// TestPct pins the delta helper's nil handling.
func TestPct(t *testing.T) {
	if p := pct(fp(120), fp(100)); p == nil || *p != 20 {
		t.Fatalf("pct(120,100) = %v", p)
	}
	if p := pct(nil, fp(100)); p != nil {
		t.Fatalf("pct(nil,100) = %v", p)
	}
	if p := pct(fp(1), nil); p != nil {
		t.Fatalf("pct(1,nil) = %v", p)
	}
	if p := pct(fp(1), fp(0)); p != nil {
		t.Fatalf("pct(1,0) = %v", p)
	}
}
