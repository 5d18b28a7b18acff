// Package pacemaker defines the interface between a Byzantine View
// Synchronization protocol (the "pacemaker", in HotStuff's terminology
// adopted by the paper) and the underlying view-based protocol it drives.
//
// The paper's §2 abstraction: the underlying protocol has views, each with
// a leader; the successful completion of view v is marked by all
// processors receiving a QC for v; the BVS protocol decides when
// processors enter views so that conditions (1) (monotonicity) and (2)
// (eventual synchronized honest-leader views) hold.
package pacemaker

import (
	"lumiere/internal/msg"
	"lumiere/internal/types"
)

// Driver is the underlying protocol as seen by a pacemaker, and the
// node's only verifier of QCs: it checks each one once and reports it
// through its onQC callback, so a *msg.QC reaching Pacemaker.Handle was
// verified by this node's engine and pacemakers do not verify it again.
type Driver interface {
	// EnterView informs the underlying protocol that this processor is
	// now in view v. Followers use this to vote on buffered proposals.
	EnterView(v types.View)
	// LeaderStart tells the underlying protocol that, as leader of
	// view v, it may start driving the view (propose), and that it
	// must not produce a QC after qcDeadline (Lumiere's Γ/2 − 2Δ rule,
	// §4; types.TimeInf for protocols without the rule).
	LeaderStart(v types.View, qcDeadline types.Time)
}

// NopDriver is a Driver that ignores all notifications; useful in tests.
type NopDriver struct{}

// EnterView implements Driver.
func (NopDriver) EnterView(types.View) {}

// LeaderStart implements Driver.
func (NopDriver) LeaderStart(types.View, types.Time) {}

// Pacemaker is a Byzantine View Synchronization protocol instance bound to
// one processor.
type Pacemaker interface {
	// Start boots the protocol (processors join with lc(p) = 0).
	Start()
	// CurrentView returns the view this processor is in (NoView before
	// entering any view).
	CurrentView() types.View
	// CurrentEpoch returns the epoch this processor is in (NoEpoch for
	// protocols without epochs, before entering any epoch).
	CurrentEpoch() types.Epoch
	// Handle processes a view-synchronization message from the network,
	// or a QC this node's engine has verified (see Driver): QCs never
	// come here straight from the network.
	Handle(from types.NodeID, m msg.Message)
	// Leader returns the leader of view v under this protocol's
	// schedule.
	Leader(v types.View) types.NodeID
}

// Observer receives pacemaker-level lifecycle notifications: tracing,
// metrics, and the read-only observation hooks adaptive attack
// strategies consume (adversary.PMObserver). All methods may be
// nil-safe no-ops.
type Observer interface {
	// OnEnterView fires when the processor enters a view.
	OnEnterView(v types.View, at types.Time)
	// OnEnterEpoch fires when the processor enters an epoch.
	OnEnterEpoch(e types.Epoch, at types.Time)
	// OnHeavySync fires when the processor sends an epoch-view
	// message, i.e. participates in a Θ(n²) epoch synchronization.
	OnHeavySync(v types.View, at types.Time)
}

// NopObserver is an Observer that ignores all notifications.
type NopObserver struct{}

// OnEnterView implements Observer.
func (NopObserver) OnEnterView(types.View, types.Time) {}

// OnEnterEpoch implements Observer.
func (NopObserver) OnEnterEpoch(types.Epoch, types.Time) {}

// OnHeavySync implements Observer.
func (NopObserver) OnHeavySync(types.View, types.Time) {}
