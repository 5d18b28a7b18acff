package redteam

import (
	"encoding/json"
	"fmt"
	"os"

	"lumiere/internal/harness"
	"lumiere/internal/viz"
)

// Entry is one protocol × objective row of the searched frontier.
type Entry struct {
	// Protocol, Objective and F identify the search context.
	Protocol  harness.Protocol `json:"protocol"`
	Objective Objective        `json:"objective"`
	F         int              `json:"f"`
	// Candidate is the worst point found; Seed its evaluation seed,
	// Value the objective value (Unit: "Δ" or "w") and Decided whether
	// the run produced the objective's event (false flags a stall — the
	// value is then the pessimal penalty, see Measure).
	Candidate Candidate `json:"candidate"`
	Seed      int64     `json:"seed"`
	Value     float64   `json:"value"`
	Unit      string    `json:"unit"`
	Decided   bool      `json:"decided"`
	// Evaluated counts the distinct candidates this entry's search
	// evaluated (grid + minimization probes).
	Evaluated int `json:"evaluated"`
	// Minimized is the delta-debugged candidate: the smallest shrink of
	// Candidate still reproducing ≥ the configured fraction of Value.
	// MinimizedSeed/MinimizedValue are its evaluation seed and value.
	Minimized      Candidate `json:"minimized"`
	MinimizedSeed  int64     `json:"minimized_seed"`
	MinimizedValue float64   `json:"minimized_value"`
}

// Frontier is the searched worst-case frontier artifact: one entry per
// protocol × objective, plus the search parameters that regenerate it.
// The reference run is committed as FRONTIER.json and pinned by
// TestFrontierAtLeastScripted.
type Frontier struct {
	// F and Seed are the search's fault tolerance and base seed.
	F    int   `json:"f"`
	Seed int64 `json:"seed"`
	// MinKeep is the minimizer's objective-retention fraction.
	MinKeep float64 `json:"min_keep"`
	// Entries holds the frontier rows: protocols outer (AllProtocols
	// order), objectives inner (search order).
	Entries []Entry `json:"entries"`
}

// Config parameterizes SearchFrontier. The zero value of every field
// takes a default; only F is required to be meaningful (default 2).
type Config struct {
	// F is the fault tolerance (n = 3F+1); Seed the search base seed.
	F    int
	Seed int64
	// Objectives to search (default: all of Objectives()).
	Objectives []Objective
	// Space is the grid space (zero F = DefaultSpace(F));
	// SMRSpace the reduced space for ObjP99Commit (zero F =
	// SlimSpace(F)).
	Space    Space
	SMRSpace Space
}

// minKeep is the fraction of the frontier objective the minimized
// candidate must retain.
const minKeep = 0.95

func (cfg Config) withDefaults() Config {
	if cfg.F <= 0 {
		cfg.F = 2
	}
	if len(cfg.Objectives) == 0 {
		cfg.Objectives = Objectives()
	}
	if cfg.Space.F == 0 {
		cfg.Space = DefaultSpace(cfg.F)
	}
	if cfg.SMRSpace.F == 0 {
		cfg.SMRSpace = SlimSpace(cfg.F)
	}
	return cfg
}

// SearchFrontier runs the full search: for every protocol × objective,
// a grid sweep over the space, then delta-debugging minimization of the
// best candidate scored. Minimizer probes leave the grid; when one
// scores better than the best, minimization restarts from it, until
// the best stops moving. Each entry is therefore the best candidate its
// evaluator scored, grid cell or probe. Every stage is deterministic in
// (Config.Seed, Config.F, spaces), so the returned frontier — including
// every minimized candidate — is byte-identical at any worker count.
// The scripted candidates are members of both default spaces, so each
// entry's value dominates the scripted corpus by construction. opts
// sizes (and reports progress of) every grid and probe batch; its seed
// fields are ignored, as each candidate's seed derives from itself.
func SearchFrontier(cfg Config, opts harness.SweepOptions) *Frontier {
	cfg = cfg.withDefaults()
	fr := &Frontier{F: cfg.F, Seed: cfg.Seed, MinKeep: minKeep}
	for _, p := range harness.AllProtocols {
		for _, obj := range cfg.Objectives {
			sp := cfg.Space
			if obj == ObjP99Commit {
				sp = cfg.SMRSpace
			}
			e := NewEvaluator(p, cfg.F, obj, cfg.Seed)
			e.EvalAll(sp.Candidates(), opts)
			best := e.Best()
			var min Candidate
			for {
				floor := minKeep * best.Value
				min = Minimize(best.Candidate, cfg.F, func(d Candidate) bool {
					return e.Eval(d).Value >= floor
				})
				// A probe that beat the best moves the entry there.
				next := e.Best()
				if next.Candidate.Key() == best.Candidate.Key() {
					break
				}
				best = next
			}
			minEv := e.Eval(min)
			entry := Entry{
				Protocol: p, Objective: obj, F: cfg.F,
				Candidate: best.Candidate, Seed: best.Seed,
				Value: best.Value, Unit: obj.Unit(), Decided: best.Decided,
				Evaluated: e.Evaluations(),
				Minimized: minEv.Candidate, MinimizedSeed: minEv.Seed, MinimizedValue: minEv.Value,
			}
			fr.Entries = append(fr.Entries, entry)
		}
	}
	return fr
}

// JSON serializes the frontier in its committed form (indented,
// trailing newline). Serialization is stable: byte-identical frontiers
// ⇔ identical searches.
func (f *Frontier) JSON() []byte {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("redteam: marshal frontier: %v", err))
	}
	return append(b, '\n')
}

// ReadFrontier loads a committed frontier artifact.
func ReadFrontier(path string) (*Frontier, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f Frontier
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("redteam: parse %s: %w", path, err)
	}
	return &f, nil
}

// Table renders the frontier: one row per protocol × objective with the
// worst candidate, its objective value, and the minimized reproducer.
// The rendering is a pure function of the search, so it is
// byte-identical at every worker count.
func (f *Frontier) Table() *viz.Table {
	t := &viz.Table{Title: fmt.Sprintf("Searched worst-case frontier (f=%d, n=%d): grid + minimizer over attack × chaos axes", f.F, 3*f.F+1)}
	t.Header = []string{"protocol", "objective", "worst", "candidate", "minimized", "min value"}
	for i := range f.Entries {
		e := &f.Entries[i]
		worst := fmt.Sprintf("%.2f%s", e.Value, e.Unit)
		if !e.Decided {
			worst += " STALLED"
		}
		t.Rows = append(t.Rows, []string{
			string(e.Protocol), string(e.Objective), worst,
			e.Candidate.String(), e.Minimized.String(),
			fmt.Sprintf("%.2f%s", e.MinimizedValue, e.Unit),
		})
	}
	t.AddNote("latencies in Δ = 50ms; words are honest sends only; minimized reproduces ≥95%% of the objective")
	t.AddNote("regenerate: go run ./cmd/lumiere-bench -suite redteam -frontier FRONTIER.json")
	return t
}
