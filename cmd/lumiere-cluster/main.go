// Command lumiere-cluster runs Lumiere over real TCP.
//
// Single-process demo cluster (n nodes in one process, real sockets):
//
//	lumiere-cluster -local -f 1 -smr -rate 50 -duration 20s
//
// Wall-clock experiment table (one loopback cluster per f, real
// sockets, words counted in the simulator's per-kind model):
//
//	lumiere-cluster -local -table -table-fs 1,2,5,10,17 -duration 3s
//
// Socket-level chaos against the local cluster (the §2 clamp honored
// relative to -gst):
//
//	lumiere-cluster -local -f 1 -loss 0.4 -dup 0.2 -gst 2s -duration 20s
//
// Multi-process deployment — run one per node with a shared peer list:
//
//	lumiere-cluster -id 0 -peers "h0:7000,h1:7000,h2:7000,h3:7000" -f 1 -smr
//	lumiere-cluster -id 1 -peers ... (etc.)
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"lumiere/internal/harness"
	"lumiere/internal/nettcp"
	"lumiere/internal/types"
)

func main() {
	var (
		id       = flag.Int("id", 0, "this node's index into -peers")
		peers    = flag.String("peers", "", "comma-separated node addresses, indexed by id")
		f        = flag.Int("f", 1, "fault tolerance f (n = 3f+1)")
		delta    = flag.Duration("delta", 200*time.Millisecond, "Δ")
		seed     = flag.Int64("seed", 42, "shared PKI seed (must match across nodes)")
		smr      = flag.Bool("smr", false, "run chained HotStuff SMR with a KV store")
		rate     = flag.Int("rate", 0, "client commands per second submitted by this node")
		duration = flag.Duration("duration", 30*time.Second, "how long to run (0 = forever)")
		local    = flag.Bool("local", false, "run the whole cluster in-process on localhost")
		table    = flag.Bool("table", false, "with -local: run the wall-clock experiment table and exit")
		tableFs  = flag.String("table-fs", "1,2,5,10,17", "comma-separated f values for -table (n = 3f+1)")
		csv      = flag.Bool("csv", false, "with -table: emit CSV instead of aligned text")
		loss     = flag.Float64("loss", 0, "with -local: drop each outbound message with this probability at the socket layer")
		dup      = flag.Float64("dup", 0, "with -local: duplicate each outbound message with this probability")
		reorder  = flag.Duration("reorder", 0, "with -local: uniform extra release jitter in [0, reorder] per message")
		gst      = flag.Duration("gst", 0, "with -local chaos: global stabilization time the §2 clamp honors")
	)
	flag.Parse()

	if *table {
		runTable(*tableFs, *delta, *duration, *seed, *csv)
		return
	}
	if *local {
		e := harness.ClusterExperiment{
			F: *f, Delta: *delta, Seed: *seed, SMR: *smr,
			Loss: *loss, Duplication: *dup, ReorderJitter: *reorder, GST: *gst,
		}
		nodes, closeAll, err := harness.StartCluster(e)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer closeAll()
		fmt.Printf("local cluster up: n=%d f=%d smr=%v chaos=%v\n", len(nodes), *f, *smr, e.LinkPolicy() != nil)
		runWorkloadAndReport(nodes, *smr, *rate, *duration)
		return
	}
	base := types.NewConfig(*f, *delta)
	addrs := strings.Split(*peers, ",")
	if len(addrs) != base.N {
		fmt.Fprintf(os.Stderr, "need %d peer addresses for f=%d, got %d\n", base.N, *f, len(addrs))
		os.Exit(1)
	}
	node, err := nettcp.StartNode(nettcp.NodeConfig{
		ID:    types.NodeID(*id),
		Addrs: addrs,
		Base:  base,
		Seed:  *seed,
		SMR:   *smr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer node.Close()
	fmt.Printf("node %d listening on %s (n=%d f=%d smr=%v)\n", *id, node.Addr(), base.N, base.F, *smr)
	runWorkloadAndReport([]*nettcp.Node{node}, *smr, *rate, *duration)
}

// runTable runs the wall-clock experiment table: one loopback cluster
// per f, Δ and per-cell runtime from the flags (the -duration and
// -delta defaults are trimmed to 3s per cell and 50ms — loopback scale
// — when left untouched).
func runTable(fsSpec string, delta, perRun time.Duration, seed int64, csv bool) {
	var fs []int
	for _, s := range strings.Split(fsSpec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v < 1 {
			fmt.Fprintf(os.Stderr, "bad -table-fs entry %q\n", s)
			os.Exit(1)
		}
		fs = append(fs, v)
	}
	if perRun <= 0 || perRun == 30*time.Second {
		perRun = 3 * time.Second
	}
	if delta == 200*time.Millisecond {
		delta = 50 * time.Millisecond
	}
	tbl, err := harness.ClusterTable(fs, delta, perRun, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if csv {
		fmt.Print(tbl.CSV())
		return
	}
	fmt.Print(tbl.Render())
}

// runWorkloadAndReport injects -rate commands per second for the run's
// duration (SMR only) and prints every node's status every two seconds.
func runWorkloadAndReport(nodes []*nettcp.Node, smr bool, rate int, duration time.Duration) {
	var accepted chan int // nil: no injector
	if smr && rate > 0 {
		accepted = make(chan int, 1)
		go func() { accepted <- harness.InjectCommands(nodes, rate, duration) }()
	}
	report := time.NewTicker(2 * time.Second)
	defer report.Stop()
	var end <-chan time.Time
	if duration > 0 {
		end = time.After(duration)
	}
	for {
		select {
		case <-report.C:
			for i, n := range nodes {
				v, e, committed := n.Status()
				st := n.Stats()
				var sent, drops int64
				for _, p := range st.Peers {
					sent += p.Sent
					drops += p.QueueDrops + p.WriteDrops + p.CondDrops
				}
				line := fmt.Sprintf("node %d: view=%v epoch=%v words=%d sent=%d drops=%d decode-errs=%d",
					i, v, e, n.Metrics().WordsTotal(), sent, drops, st.DecodeErrors)
				if smr {
					line += fmt.Sprintf(" committed=%d kv=%d", committed, n.KV().Len())
				}
				fmt.Println(line)
			}
			fmt.Println("--")
		case <-end:
			if accepted != nil {
				fmt.Printf("injected %d commands\n", <-accepted)
			}
			fmt.Println("done")
			return
		}
	}
}
