// Package core implements Lumiere, the paper's primary contribution: an
// optimistically responsive Byzantine View Synchronization protocol for
// partial synchrony with O(n²) worst-case communication, O(nΔ) worst-case
// latency, smooth optimistic responsiveness, and eventual worst-case
// communication O(n·f_a + n).
//
// Two variants are provided:
//
//   - VariantFull is the full protocol of §4 (Algorithm 1): epochs of 10n
//     views, the success criterion that retires heavy epoch
//     synchronizations in the steady state, TC-relayed epoch changes, the
//     Δ-wait before epoch-view messages, and the leader QC-production
//     deadline Γ/2 − 2Δ that shrinks the (f+1)st honest gap.
//
//   - VariantBasic is Basic Lumiere of §3.4: LP22's heavy synchronization
//     at the start of every epoch (of 2(f+1) views) combined with Fever's
//     clock bumping within epochs. It is smoothly optimistically
//     responsive with O(n²) worst-case communication, but performs a heavy
//     synchronization every epoch forever.
package core

import (
	"fmt"
	"time"

	"lumiere/internal/types"
)

// Variant selects the protocol variant.
type Variant int

// Protocol variants.
const (
	// VariantFull is the §4 protocol (Algorithm 1).
	VariantFull Variant = iota + 1
	// VariantBasic is Basic Lumiere (§3.4).
	VariantBasic
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case VariantFull:
		return "lumiere"
	case VariantBasic:
		return "basic-lumiere"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Config parameterizes a Lumiere pacemaker.
type Config struct {
	// Base is the execution-model configuration (n, f, Δ, x).
	Base types.Config
	// Variant selects full Lumiere (default) or Basic Lumiere.
	Variant Variant
	// BlocksPerEpoch is the number of 2n-view leader-permutation blocks
	// per epoch for the full variant. The paper uses 5, making epochs
	// 10n views long (§4 "Epochs and epoch views"). Each leader leads
	// 2·BlocksPerEpoch views per epoch.
	BlocksPerEpoch int
	// QCsPerLeaderForSuccess is the number of QCs each of 2f+1 distinct
	// leaders must produce in an epoch to satisfy the success
	// criterion. The paper uses 10 = 2·BlocksPerEpoch; 0 means derive
	// it that way.
	QCsPerLeaderForSuccess int
	// DisableDeltaWait removes the Δ-wait before sending epoch-view
	// messages (§3.5's final fix); used by the ablation experiment.
	DisableDeltaWait bool
	// ScheduleSeed seeds the full variant's leader permutation
	// schedule.
	ScheduleSeed int64
	// RoundRobin forces the deterministic ⌊v/2⌋ mod n schedule instead
	// of random permutations (tests and the basic variant).
	RoundRobin bool
	// CheckInvariants enables per-step verification of the paper's
	// Lemmas 5.1-5.3; violations are recorded (see
	// Pacemaker.Violations).
	CheckInvariants bool
}

// DefaultConfig returns the paper-default full-variant configuration.
func DefaultConfig(base types.Config) Config {
	return Config{Base: base, Variant: VariantFull, BlocksPerEpoch: 5}
}

// normalized fills in derived defaults.
func (c Config) normalized() Config {
	if c.Variant == 0 {
		c.Variant = VariantFull
	}
	if c.BlocksPerEpoch <= 0 {
		c.BlocksPerEpoch = 5
	}
	if c.QCsPerLeaderForSuccess <= 0 {
		c.QCsPerLeaderForSuccess = 2 * c.BlocksPerEpoch
	}
	if c.Variant == VariantBasic {
		c.RoundRobin = true
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Base.Validate(); err != nil {
		return err
	}
	n := c.normalized()
	if n.Variant != VariantFull && n.Variant != VariantBasic {
		return fmt.Errorf("core: unknown variant %v", c.Variant)
	}
	return nil
}

// Gamma returns the view duration Γ: 2(x+2)Δ for the full variant (§4),
// 2(x+1)Δ for basic (§3.3-3.4).
func (c Config) Gamma() time.Duration {
	x := time.Duration(c.Base.X)
	if c.normalized().Variant == VariantBasic {
		return 2 * (x + 1) * c.Base.Delta
	}
	return 2 * (x + 2) * c.Base.Delta
}

// QCWindow returns the leader QC-production window Γ/2 − 2Δ (§4), or a
// negative value meaning "no deadline" for the basic variant.
func (c Config) QCWindow() time.Duration {
	if c.normalized().Variant == VariantBasic {
		return -1
	}
	return c.Gamma()/2 - 2*c.Base.Delta
}

// EpochLen returns the number of views per epoch: 10n for the full
// variant (2n·BlocksPerEpoch), 2(f+1) for basic.
func (c Config) EpochLen() types.View {
	n := c.normalized()
	if n.Variant == VariantBasic {
		return types.View(2 * (c.Base.F + 1))
	}
	return types.View(2 * c.Base.N * n.BlocksPerEpoch)
}

// EpochOf returns E(v), the epoch a view belongs to (E(-1) = -1).
func (c Config) EpochOf(v types.View) types.Epoch {
	l := c.EpochLen()
	if v < 0 {
		return types.NoEpoch
	}
	return types.Epoch(v / l)
}

// FirstView returns V(e), the epoch view of epoch e.
func (c Config) FirstView(e types.Epoch) types.View {
	return types.View(e) * c.EpochLen()
}

// IsEpochView reports whether v is the first view of its epoch.
func (c Config) IsEpochView(v types.View) bool {
	return v >= 0 && v%c.EpochLen() == 0
}
