// Package lp22 implements the LP22 view synchronization protocol as
// described in §3.2 of the Lumiere paper: views are batched into epochs of
// f+1 views; a heavy Θ(n²) all-to-all synchronization starts every epoch;
// non-epoch views are entered when the local clock reaches c_v or when a
// QC for the previous view arrives — but clocks are never bumped, which is
// exactly the weakness Figure 1 illustrates: after a burst of fast QCs a
// single faulty leader stalls progress until the unbumped clocks catch up,
// up to Θ(nΔ).
//
// The protocol is baseline.EpochSync with the responsive QC rule.
package lp22

import (
	"time"

	"lumiere/internal/baseline"
	"lumiere/internal/clock"
	"lumiere/internal/crypto"
	"lumiere/internal/network"
	"lumiere/internal/pacemaker"
	"lumiere/internal/trace"
	"lumiere/internal/types"
)

// Gamma returns LP22's view duration Γ = (x+1)Δ (§3.2).
func Gamma(cfg types.Config) time.Duration { return baseline.EpochGamma(cfg) }

// New creates an LP22 pacemaker.
func New(cfg types.Config, ep network.Endpoint, rt clock.Runtime, clk *clock.Clock,
	suite crypto.Suite, driver pacemaker.Driver, obs pacemaker.Observer, tr *trace.Tracer) *baseline.EpochSync {
	return baseline.NewEpochSync(cfg, true, ep, rt, clk, suite, driver, obs, tr)
}
