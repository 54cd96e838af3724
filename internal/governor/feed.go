package governor

import "sync/atomic"

// pad keeps the accumulator words off the decision word's cache line so
// feeders adding samples never invalidate the line every handle polls.
type pad [64]byte

// Governor is the concurrent face of a Controller: handles feed epoch
// deltas with uncontended-in-practice atomic adds, and whichever feed tips
// the accumulated op count over the epoch size tries a CAS latch; the
// winner swaps the accumulators out, steps the controller once, and
// publishes the new decision word. Everyone else pays one atomic add per
// feed and one atomic load per poll — no locks anywhere near the op path.
type Governor struct {
	word atomic.Uint64 // Pack(decision, epoch): THE published configuration
	_    pad

	ops     atomic.Uint64
	ns      atomic.Uint64
	chits   atomic.Uint64
	_       pad
	latch   atomic.Uint32
	forced  bool
	cfg     Config
	ctl     *Controller
	epochs  atomic.Uint64
	adopted atomic.Uint64
	pinned  atomic.Uint32

	// OnDecision, when set before the first Feed, observes every published
	// decision change (trace-event wiring). Called under the step latch, so
	// implementations must be brief and must not re-enter the Governor.
	OnDecision func(d Decision, epoch uint64)
}

// New creates an auto-mode governor around a fresh controller.
func New(cfg Config) *Governor {
	cfg.fill()
	g := &Governor{cfg: cfg, ctl: NewController(cfg)}
	g.word.Store(Pack(g.ctl.Current(), 0))
	return g
}

// NewForced creates a governor permanently pinned to d: Feed is a no-op and
// the word never changes. This is how GovernorDirect (and tests) get the
// same handle-side plumbing without a controller.
func NewForced(d Decision) *Governor {
	g := &Governor{forced: true}
	g.word.Store(Pack(d, 0))
	g.pinned.Store(1)
	return g
}

// Word returns the packed current decision; handles cache it and re-decode
// only when it changes.
func (g *Governor) Word() uint64 { return g.word.Load() }

// Decision returns the decoded current decision.
func (g *Governor) Decision() Decision { return Unpack(g.word.Load()) }

// Epochs returns the number of controller steps taken.
func (g *Governor) Epochs() uint64 { return g.epochs.Load() }

// Adoptions returns how many trials beat their incumbent.
func (g *Governor) Adoptions() uint64 { return g.adopted.Load() }

// Pinned reports whether the controller has converged (always true for a
// forced governor).
func (g *Governor) Pinned() bool { return g.pinned.Load() != 0 }

// Feed accumulates one handle's epoch-fragment deltas and steps the
// controller when the epoch fills. Safe for concurrent use from any number
// of handles.
func (g *Governor) Feed(s Sample) {
	if g.forced || s.Ops == 0 {
		return
	}
	g.ns.Add(s.NS)
	g.chits.Add(s.CombineHits)
	if g.ops.Add(s.Ops) < g.cfg.EpochOps {
		return
	}
	if !g.latch.CompareAndSwap(0, 1) {
		return // someone else is stepping
	}
	// Re-check under the latch: the winner of a racing pair may have
	// already drained the accumulators.
	if g.ops.Load() >= g.cfg.EpochOps {
		sample := Sample{
			Ops:         g.ops.Swap(0),
			NS:          g.ns.Swap(0),
			CombineHits: g.chits.Swap(0),
		}
		prev := g.ctl.Current()
		d := g.ctl.Step(sample)
		epoch := g.ctl.Epochs()
		g.epochs.Store(epoch)
		g.adopted.Store(g.ctl.Adoptions())
		if g.ctl.Pinned() {
			g.pinned.Store(1)
		} else {
			g.pinned.Store(0)
		}
		g.word.Store(Pack(d, epoch))
		if d != prev && g.OnDecision != nil {
			g.OnDecision(d, epoch)
		}
	}
	g.latch.Store(0)
}

// Metrics returns the pull-source gauge map the observability layer scrapes:
// the required governor_mode / governor_window / governor_epochs names plus
// the rest of the decision and the controller's progress counters.
// governor_mode encodes 0=pipelined (governed off or auto in pipelined
// state), 1=direct.
func (g *Governor) Metrics() map[string]float64 {
	d := g.Decision()
	mode := 0.0
	if d.Direct {
		mode = 1
	}
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	return map[string]float64{
		"governor_mode":      mode,
		"governor_window":    float64(d.Window),
		"governor_epochs":    float64(g.Epochs()),
		"governor_combine":   b2f(d.Combine),
		"governor_adoptions": float64(g.Adoptions()),
		"governor_pinned":    b2f(g.Pinned()),
	}
}
