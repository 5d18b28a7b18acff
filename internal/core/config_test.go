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
