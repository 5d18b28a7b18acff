// Package raresync implements RareSync (Civit et al., DISC 2022), the
// protocol that — concurrently with LP22 — first matched the
// Dolev-Reischuk O(n²) bound for Byzantine view synchronization in
// partial synchrony, as discussed in §6 of the Lumiere paper.
//
// Like LP22 it batches views into epochs of f+1 views and performs one
// Θ(n²) all-to-all synchronization per epoch. Unlike LP22 it is *not*
// optimistically responsive: views within an epoch advance purely on the
// clock schedule (the paper: "RareSync is not optimistically
// responsive"), so every consensus decision costs Θ(Γ) = Θ(Δ) even on a
// fast network. It serves as the non-responsive end of the comparison
// spectrum in this repository's experiments.
//
// The protocol is baseline.EpochSync without the responsive QC rule.
package raresync

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

// Gamma returns RareSync's view duration Γ = (x+1)Δ.
func Gamma(cfg types.Config) time.Duration { return baseline.EpochGamma(cfg) }

// New creates a RareSync pacemaker.
func New(cfg types.Config, ep network.Endpoint, rt clock.Runtime, clk *clock.Clock,
	suite crypto.Suite, driver pacemaker.Driver, obs pacemaker.Observer, tr *trace.Tracer) *baseline.EpochSync {
	return baseline.NewEpochSync(cfg, false, ep, rt, clk, suite, driver, obs, tr)
}
