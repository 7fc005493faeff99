// Discrete-event advancement for the cluster coordinator. RunDES is
// byte-identical to Run — same decisions, counters, energy, trace — but
// instead of paying full coordinator overhead every 10 ms quantum it
// classifies each upcoming quantum as interesting (a schedule edge, a
// budget edge, a pending actuation, a waker's next event) or quiet, and
// fast-forwards machines through quiet spans on their probe-and-replay
// path while samplers keep collecting per-quantum windows.
package cluster

import (
	"math"

	"repro/internal/farm"
	"repro/internal/units"
)

// Waker bounds DES skipping for a per-quantum hook participant (a serving
// station's feeder, a fault injector): NextWakeAt returns the earliest
// future time the participant needs a real coordinator Step, +Inf when it
// never does again, or a time ≤ now when it cannot bound one (which
// disables skipping). Implementations must be conservative — waking too
// early costs a quantum, waking late changes the simulation.
type Waker interface {
	NextWakeAt(now float64) float64
}

// QuantaSkipper is the optional Waker extension for participants that
// keep their own per-quantum counters (a station's emit cadence): they
// are told how many quanta a skip covered so the counters stay aligned.
type QuantaSkipper interface {
	SkipQuanta(n int)
}

// AddWaker registers a skip bound. With quantum hooks installed but no
// wakers, RunDES never skips — hooks see every quantum either way.
func (c *Coordinator) AddWaker(w Waker) { c.wakers = append(c.wakers, w) }

// budgetWant returns the budget the next Step would see in force.
func (c *Coordinator) budgetWant() units.Power {
	switch {
	case c.source != nil:
		return c.source.BudgetAt(c.loop.Now())
	case c.Budgets != nil:
		return c.Budgets.At(c.loop.Now())
	}
	return c.budget
}

// quietSpan returns how many upcoming quanta need no coordinator work —
// no trace emission, no budget change, no actuation landing, no schedule
// pass, no waker event — and may therefore be skipped. 0 means the next
// quantum must be a real Step.
func (c *Coordinator) quietSpan(until float64) int {
	if c.sink != nil {
		// Tracing observes every quantum; nothing is quiet.
		return 0
	}
	if (c.beforeQuantum != nil || c.afterQuantum != nil) && len(c.wakers) == 0 {
		// Hooks without wakers could need any quantum.
		return 0
	}
	if c.budgetWant() != c.budget {
		return 0
	}
	now := c.loop.Now()
	q := c.loop.Quantum()
	// Never skip across the schedule timer's due edge.
	n := c.loop.TicksUntilDue() - 1
	// bound clips the span so every skipped quantum *starts* before t.
	bound := func(t float64) {
		if math.IsInf(t, 1) {
			return
		}
		if k := int((t - now) / q); k < n {
			n = k
		}
	}
	bound(until)
	// Budget edges: a source that cannot announce them disables skipping.
	switch {
	case c.source != nil:
		es, ok := c.source.(farm.EdgeSource)
		if !ok {
			return 0
		}
		t := es.NextChangeAt(now)
		if t <= now {
			return 0
		}
		bound(t)
	case c.Budgets != nil:
		bound(c.Budgets.NextChangeAt(now))
	}
	for _, p := range c.pending {
		bound(p.due)
	}
	for _, w := range c.wakers {
		t := w.NextWakeAt(now)
		if t <= now {
			return 0
		}
		bound(t)
	}
	if n < 0 {
		return 0
	}
	return n
}

// skipSpan advances every machine n quanta (each sampler ends up exactly
// as if it had collected every quantum) and moves the loop clock without
// running coordinator work.
func (c *Coordinator) skipSpan(n int) error {
	for _, nd := range c.nodes {
		s, err := c.sampler(nd)
		if err != nil {
			return err
		}
		if c.homogeneous {
			if err := nd.M.FastForwardQuanta(n, s); err != nil {
				return err
			}
			continue
		}
		// Heterogeneous machines advance to each cadence edge in turn,
		// accumulating the target exactly as the stepped loop clock would.
		t := c.loop.Now()
		q := c.loop.Quantum()
		for j := 0; j < n; j++ {
			t += q
			if err := nd.M.AdvanceTo(t); err != nil {
				return err
			}
			if err := s.Collect(); err != nil {
				return err
			}
		}
	}
	if err := c.loop.SkipTicks(n); err != nil {
		return err
	}
	for _, w := range c.wakers {
		if s, ok := w.(QuantaSkipper); ok {
			s.SkipQuanta(n)
		}
	}
	return nil
}

// RunDES advances the cluster until simulation time t on the event
// timeline: real Steps at every interesting quantum, bulk fast-forwards
// through quiet spans. The result is byte-identical to Run(until) — the
// differential harness pins it — so callers may pick either purely on
// wall-clock cost.
func (c *Coordinator) RunDES(until float64) error {
	for c.loop.Now() < until {
		if n := c.quietSpan(until); n > 0 {
			if err := c.skipSpan(n); err != nil {
				return err
			}
			continue
		}
		if err := c.Step(); err != nil {
			return err
		}
	}
	return nil
}
