// Package governor is the adaptive pipeline controller: a per-table
// epoch-based hill-climber that watches the hot path's own counters
// (throughput, combine hit-rate) and tunes the live pipeline —
// prefetch-window depth (including the degraded direct mode, depth "0") and
// in-window combining — publishing each decision through one atomic word
// that handles re-read at batch boundaries. No locks, no channels, no
// goroutines: the controller steps inside whichever worker happens to close
// an epoch, and every other worker pays one atomic load per poll.
//
// The design splits three ways so each layer is independently testable:
//
//   - Decision is the packed configuration word (mode, window, combining)
//     plus the epoch sequence number that makes every publish
//     distinguishable from the last.
//   - Controller is a PURE state machine: Step(Sample) → Decision, no
//     atomics, no time, no randomness. The convergence property tests drive
//     it with synthetic sensor traces and assert it lands on the known-best
//     configuration and pins there (hysteresis).
//   - Governor wraps a Controller with the concurrent plumbing: padded
//     sample accumulators fed by handles, a CAS latch so exactly one feeder
//     steps the controller per epoch, and the atomic decision word.
package governor

import "fmt"

// Decision is one pipeline configuration chosen by the controller.
type Decision struct {
	// Direct selects the degraded synchronous mode: Submit bypasses the
	// prefetch ring and executes a folklore-style inline probe. Window,
	// Combine are ignored while Direct (there is no window to combine in).
	Direct bool
	// Window is the prefetch-window depth in pipelined mode, 1..255.
	Window int
	// Combine enables in-window request combining (only meaningful on a
	// table built with combining capability).
	Combine bool
}

// String renders the decision for logs and benchmark artifacts.
func (d Decision) String() string {
	if d.Direct {
		return "direct"
	}
	return fmt.Sprintf("window=%d,combine=%v", d.Window, d.Combine)
}

// Decision word layout. The epoch sequence lives in the high 32 bits so two
// publishes of the same configuration still differ, letting handles use a
// plain != test on their cached word.
const (
	bitDirect  = 1 << 0
	bitCombine = 1 << 1
	windowShf  = 8
	epochShf   = 32
)

// Pack encodes d and the epoch sequence into one word.
func Pack(d Decision, epoch uint64) uint64 {
	w := uint64(epoch) << epochShf
	if d.Direct {
		w |= bitDirect
	}
	if d.Combine {
		w |= bitCombine
	}
	win := d.Window
	if win < 1 {
		win = 1
	}
	if win > 255 {
		win = 255
	}
	w |= uint64(win) << windowShf
	return w
}

// Unpack decodes a word produced by Pack.
func Unpack(w uint64) Decision {
	return Decision{
		Direct:  w&bitDirect != 0,
		Combine: w&bitCombine != 0,
		Window:  int(w >> windowShf & 0xff),
	}
}

// Sample is one epoch's aggregated sensor readings, in deltas.
type Sample struct {
	// Ops and NS measure throughput: completed operations and the wall-clock
	// nanoseconds the feeding handles spent completing them.
	Ops uint64
	NS  uint64
	// CombineHits counts requests absorbed by in-window combining (folded
	// upserts + piggybacked + forwarded gets).
	CombineHits uint64
}

// tput is the sample's throughput in ops per nanosecond (the unit cancels
// in every comparison the controller makes).
func (s Sample) tput() float64 {
	ns := s.NS
	if ns == 0 {
		ns = 1
	}
	return float64(s.Ops) / float64(ns)
}

// Config bounds the controller's search space and sets its cadence. The
// capability fields matter: the governor may only toggle features the table
// was CONSTRUCTED with (a combining-off table allocated no ptags mirror), so
// the neighbor generator never proposes a configuration the handles cannot
// apply.
type Config struct {
	// Window is the construction-time prefetch window — the pipelined mode's
	// maximum depth.
	Window int
	// Combining reports whether the table was built with combining
	// capability.
	Combining bool
	// Direct, when false, removes the direct mode from the search space
	// (used by the partitioned read pipeline before its direct path existed;
	// the core table always allows it).
	Direct bool

	// EpochOps is the number of operations per measurement epoch; 0 selects
	// DefaultEpochOps.
	EpochOps uint64
	// Margin is the relative throughput improvement a trial must show over
	// the incumbent to be adopted (the hysteresis band); 0 selects
	// DefaultMargin.
	Margin float64
	// SettleRounds is how many full exploration rounds must pass without an
	// adoption before the controller pins; 0 selects DefaultSettleRounds.
	SettleRounds int
	// DriftFactor is the relative throughput drift on a pinned
	// configuration that re-opens exploration; 0 selects DefaultDriftFactor.
	DriftFactor float64
}

// Defaults. EpochOps trades reaction time against measurement noise: 16k
// ops is ~2ms at folklore-class speeds, long enough that per-epoch jitter
// stays well inside the adoption margin.
const (
	DefaultEpochOps     = 16384
	DefaultMargin       = 0.05
	DefaultSettleRounds = 2
	DefaultDriftFactor  = 0.5
)

func (c *Config) fill() {
	if c.Window < 1 {
		c.Window = 1
	}
	if c.EpochOps == 0 {
		c.EpochOps = DefaultEpochOps
	}
	if c.Margin == 0 {
		c.Margin = DefaultMargin
	}
	if c.SettleRounds == 0 {
		c.SettleRounds = DefaultSettleRounds
	}
	if c.DriftFactor == 0 {
		c.DriftFactor = DefaultDriftFactor
	}
}

// Controller is the pure hill-climbing state machine. Zero value is not
// usable; create with NewController. Not safe for concurrent use — Governor
// serializes Step calls through its epoch latch.
//
// The search runs in rounds. A round measures the incumbent ("base")
// configuration for one epoch, then each neighbor configuration for one
// epoch; after every configuration change one transition epoch is discarded
// (the pipeline refills, caches re-warm). A neighbor that beats the base by
// more than Margin becomes the new base immediately and a fresh round starts
// around it; a round that ends with no adoption increments the quiet count,
// and SettleRounds quiet rounds pin the controller: it stops proposing
// changes entirely (the decision word goes constant — the "never oscillate"
// guarantee) until the pinned configuration's own throughput drifts by more
// than DriftFactor, which re-opens exploration (workload change).
type Controller struct {
	cfg Config

	cur      Decision // decision currently in force
	base     Decision // incumbent the round explores around
	baseTput float64  // incumbent's measured throughput
	pinTput  float64  // throughput reference while pinned

	neighbors []Decision
	trial     int  // index into neighbors; -1 = measuring base
	skip      bool // next sample is a transition epoch: discard

	quiet  int // completed rounds without an adoption
	pinned bool

	epochs    uint64
	adoptions uint64
}

// NewController creates a controller whose initial decision is the table's
// constructed configuration.
func NewController(cfg Config) *Controller {
	cfg.fill()
	base := Decision{
		Window:  cfg.Window,
		Combine: cfg.Combining,
	}
	return &Controller{
		cfg:   cfg,
		cur:   base,
		base:  base,
		trial: -1,
		// The very first sample measures a fresh table mid-warmup; discard
		// it like any other transition epoch.
		skip: true,
	}
}

// Current returns the decision currently in force.
func (c *Controller) Current() Decision { return c.cur }

// Pinned reports whether the controller has converged (hysteresis pin).
func (c *Controller) Pinned() bool { return c.pinned }

// Epochs returns the number of samples consumed (including discarded
// transition epochs).
func (c *Controller) Epochs() uint64 { return c.epochs }

// Adoptions returns how many times a trial configuration beat the incumbent.
func (c *Controller) Adoptions() uint64 { return c.adoptions }

// Step consumes one epoch's sample and returns the decision for the next
// epoch. The returned decision may equal the current one.
func (c *Controller) Step(s Sample) Decision {
	c.epochs++
	if c.skip {
		// Transition epoch: the sample straddles a configuration change.
		c.skip = false
		return c.cur
	}
	tput := s.tput()

	if c.pinned {
		if c.pinTput > 0 {
			drift := (tput - c.pinTput) / c.pinTput
			if drift < -c.cfg.DriftFactor || drift > c.cfg.DriftFactor {
				// Workload change: re-open exploration around the incumbent.
				c.pinned = false
				c.quiet = 0
				c.trial = -1
				c.baseTput = 0
				return c.cur
			}
			// Slow EWMA track so gradual drift doesn't accumulate into a
			// spurious re-exploration, while a step change still trips it.
			c.pinTput = 0.9*c.pinTput + 0.1*tput
		} else {
			c.pinTput = tput
		}
		return c.cur
	}

	if c.trial < 0 {
		// This sample measured the incumbent.
		c.baseTput = tput
		c.neighbors = c.genNeighbors(s)
		if len(c.neighbors) == 0 {
			c.pin(tput)
			return c.cur
		}
		c.trial = 0
		c.cur = c.neighbors[0]
		c.skip = true
		return c.cur
	}

	// This sample measured neighbors[c.trial].
	if tput > c.baseTput*(1+c.cfg.Margin) {
		// Adopt: the trial becomes the incumbent and a fresh round starts
		// around it. Its measurement doubles as the new base measurement.
		c.adoptions++
		c.quiet = 0
		c.base = c.cur
		c.baseTput = tput
		c.neighbors = c.genNeighbors(s)
		if len(c.neighbors) == 0 {
			c.pin(tput)
			return c.cur
		}
		c.trial = 0
		c.cur = c.neighbors[0]
		c.skip = true
		return c.cur
	}

	// Reject: move to the next neighbor, or close the round.
	c.trial++
	if c.trial < len(c.neighbors) {
		c.cur = c.neighbors[c.trial]
		c.skip = true
		return c.cur
	}
	c.cur = c.base
	c.skip = true
	c.trial = -1
	c.quiet++
	if c.quiet >= c.cfg.SettleRounds {
		c.pin(c.baseTput)
	}
	return c.cur
}

func (c *Controller) pin(tput float64) {
	c.pinned = true
	c.pinTput = tput
	c.cur = c.base
}

// genNeighbors builds the round's trial list around the incumbent,
// capability-bounded and sensor-ordered: the sample's combine hit-rate
// decides whether the direct mode is worth trying first, so a converging run
// spends its epochs on the moves most likely to pay.
func (c *Controller) genNeighbors(s Sample) []Decision {
	b := c.base
	var out []Decision
	add := func(d Decision) {
		if d == b {
			return
		}
		for _, e := range out {
			if e == d {
				return
			}
		}
		out = append(out, d)
	}

	combineRate := 0.0
	if s.Ops > 0 {
		combineRate = float64(s.CombineHits) / float64(s.Ops)
	}

	if b.Direct {
		// The only move out of direct is back into the pipeline, at full
		// depth (half-depths are reachable from there next round).
		d := b
		d.Direct = false
		d.Window = c.cfg.Window
		d.Combine = c.cfg.Combining
		add(d)
	} else {
		// Mode switch first when the pipeline shows no sign of paying:
		// nothing combines and the window runs shallow relative to its
		// configured depth, the async machinery is pure overhead.
		if c.cfg.Direct && combineRate < 0.05 {
			d := b
			d.Direct = true
			d.Combine = false // canonical: no window to combine in
			add(d)
		}
		if b.Window > 1 {
			d := b
			d.Window = b.Window / 2
			add(d)
		}
		if b.Window < c.cfg.Window {
			d := b
			d.Window = b.Window * 2
			if d.Window > c.cfg.Window {
				d.Window = c.cfg.Window
			}
			add(d)
		}
		if c.cfg.Combining {
			d := b
			d.Combine = !b.Combine
			add(d)
		}
		// Direct as a late trial even under combining traffic: measured, not
		// assumed (a hot-everything workload can still be latency-bound).
		if c.cfg.Direct {
			d := b
			d.Direct = true
			d.Combine = false // canonical: no window to combine in
			add(d)
		}
	}
	return out
}
