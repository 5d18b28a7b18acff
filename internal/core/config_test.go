package core

import (
	"testing"
	"testing/quick"
	"time"

	"lumiere/internal/types"
)

func fullCfg(f int) Config {
	return DefaultConfig(types.NewConfig(f, 100*time.Millisecond))
}

func basicCfg(f int) Config {
	c := DefaultConfig(types.NewConfig(f, 100*time.Millisecond))
	c.Variant = VariantBasic
	return c
}

func TestEpochGeometryFull(t *testing.T) {
	c := fullCfg(3) // n = 10
	if got := c.EpochLen(); got != 100 {
		t.Fatalf("epoch len = %d, want 10n = 100", got)
	}
	if c.FirstView(0) != 0 || c.FirstView(2) != 200 {
		t.Fatal("FirstView wrong")
	}
	if c.EpochOf(0) != 0 || c.EpochOf(99) != 0 || c.EpochOf(100) != 1 {
		t.Fatal("EpochOf wrong")
	}
	if c.EpochOf(types.NoView) != types.NoEpoch {
		t.Fatal("EpochOf(-1) != -1")
	}
	if !c.IsEpochView(0) || !c.IsEpochView(100) || c.IsEpochView(50) || c.IsEpochView(-1) {
		t.Fatal("IsEpochView wrong")
	}
}

func TestEpochGeometryBasic(t *testing.T) {
	c := basicCfg(3)
	if got := c.EpochLen(); got != 8 {
		t.Fatalf("basic epoch len = %d, want 2(f+1) = 8", got)
	}
}

// TestEpochLenMatchesNormalized: EpochLen applies normalized's defaults
// inline, so for every variant (including the zero value, which means
// full) and every BlocksPerEpoch (≤ 0 means 5) it must equal the length
// the normalized config defines.
func TestEpochLenMatchesNormalized(t *testing.T) {
	for _, v := range []Variant{0, VariantBasic, VariantFull} {
		for _, blocks := range []int{0, 3, 5} {
			c := Config{Base: types.NewConfig(3, 100*time.Millisecond), Variant: v, BlocksPerEpoch: blocks}
			n := c.normalized()
			want := types.View(2 * n.Base.N * n.BlocksPerEpoch)
			if n.Variant == VariantBasic {
				want = types.View(2 * (n.Base.F + 1))
			}
			if got := c.EpochLen(); got != want {
				t.Errorf("variant %v, blocks %d: EpochLen = %d, normalized = %d", v, blocks, got, want)
			}
		}
	}
}

func TestGammaValues(t *testing.T) {
	// x = 3, Δ = 100ms.
	if got := fullCfg(1).Gamma(); got != 1000*time.Millisecond {
		t.Fatalf("full Γ = %v, want 2(x+2)Δ = 1s", got)
	}
	if got := basicCfg(1).Gamma(); got != 800*time.Millisecond {
		t.Fatalf("basic Γ = %v, want 2(x+1)Δ = 800ms", got)
	}
}

func TestQCWindow(t *testing.T) {
	// Γ/2 − 2Δ = 5Δ − 2Δ = 3Δ = xΔ.
	if got := fullCfg(1).QCWindow(); got != 300*time.Millisecond {
		t.Fatalf("qc window = %v, want 300ms", got)
	}
	if got := basicCfg(1).QCWindow(); got >= 0 {
		t.Fatalf("basic should have no deadline, got %v", got)
	}
}

func TestSuccessThresholdDefault(t *testing.T) {
	c := fullCfg(1).normalized()
	if c.QCsPerLeaderForSuccess != 10 {
		t.Fatalf("default success QCs = %d, want 10", c.QCsPerLeaderForSuccess)
	}
	c2 := fullCfg(1)
	c2.BlocksPerEpoch = 3
	if c2.normalized().QCsPerLeaderForSuccess != 6 {
		t.Fatal("derived success QCs should be 2·blocks")
	}
}

func TestValidate(t *testing.T) {
	if err := fullCfg(2).Validate(); err != nil {
		t.Fatalf("valid rejected: %v", err)
	}
	bad := fullCfg(2)
	bad.Base.Delta = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid base accepted")
	}
	// Each leader's success count is one byte.
	for qcs, ok := range map[int]bool{255: true, 256: false} {
		c := fullCfg(2)
		c.QCsPerLeaderForSuccess = qcs
		if err := c.Validate(); (err == nil) != ok {
			t.Errorf("%d success QCs: Validate() = %v, want ok=%v", qcs, err, ok)
		}
	}
}

// TestValidateScheduleSize: a schedule built for another n is rejected
// up front instead of surfacing as an out-of-range leader. The basic
// variant always uses its own round robin, whatever Schedule says.
func TestValidateScheduleSize(t *testing.T) {
	n := fullCfg(2).Base.N
	for _, c := range []struct {
		name    string
		variant Variant
		sched   Schedule
		ok      bool
	}{
		{"nil", VariantFull, nil, true},
		{"perm", VariantFull, NewPermSchedule(n, 1), true},
		{"perm-small", VariantFull, NewPermSchedule(n-1, 1), false},
		{"perm-large", VariantFull, NewPermSchedule(n+3, 1), false},
		{"round-robin", VariantFull, RoundRobin{N: n}, true},
		{"round-robin-other", VariantFull, RoundRobin{N: 2 * n}, false},
		{"basic-ignores", VariantBasic, RoundRobin{N: 1}, true},
	} {
		cfg := fullCfg(2)
		cfg.Variant, cfg.Schedule = c.variant, c.sched
		if err := cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestEpochRoundTripQuick(t *testing.T) {
	c := fullCfg(2)
	// Property: every view belongs to exactly one epoch and
	// V(E(v)) ≤ v < V(E(v)+1).
	f := func(raw uint32) bool {
		v := types.View(raw)
		e := c.EpochOf(v)
		return c.FirstView(e) <= v && v < c.FirstView(e+1) && c.EpochOf(c.FirstView(e)) == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVariantString(t *testing.T) {
	if VariantFull.String() != "lumiere" || VariantBasic.String() != "basic-lumiere" {
		t.Fatal("variant strings")
	}
}
