// Variable-dt advancement: the discrete-event fast path over the quantum
// engine. AdvanceTo and FastForwardQuanta advance a machine many quanta
// at a time while remaining byte-identical to repeated Step calls — the
// contract the quantum-vs-DES differential driver pins.
//
// The mechanism is probe-and-replay, with Step as the only executor of
// simulated work: when the machine is in a steady span (no runnable or
// pending work, no settling throttle, no RNG consumption per quantum),
// two consecutive quanta are run through the real Step path; if they
// produce identical counter deltas and quantum stats, every further
// quantum in the span is that same pure function of state, so the span
// is replayed in bulk — integer counter additions, one idle-cursor
// advance, and the exact per-quantum floating-point accumulations on the
// clock and both energy meters (repeated addition is observable;
// summing once would round differently), plus the windows an attached
// counter sampler would have collected, written in bulk. The certificate
// outlives the span: later calls, single quanta included, replay at once
// until a real step or an outside change (work, arrivals, stolen time, a
// throttle change) clears it. Anything the probes cannot certify —
// jitter draws, Monte-Carlo execution, arrivals maturing, idle-loop
// phase wrap — falls back to per-quantum stepping, so the fast path is
// an optimisation, never a semantic.
package machine

import (
	"fmt"

	"repro/internal/counters"
	"repro/internal/units"
)

// StepError is the structured failure the advance paths surface when a
// quantum cannot be accounted (energy integration rejecting its inputs),
// instead of crashing mid-simulation. Only the legacy Step wrapper still
// panics, preserving its historical contract.
type StepError struct {
	Machine string
	At      float64
	Op      string
	Err     error
}

// Error implements error.
func (e *StepError) Error() string {
	return fmt.Sprintf("machine %s: %s at t=%v: %v", e.Machine, e.Op, e.At, e.Err)
}

// Unwrap exposes the underlying cause for errors.Is/As.
func (e *StepError) Unwrap() error { return e.Err }

func (m *Machine) stepError(op string, err error) error {
	return &StepError{Machine: m.cfg.Name, At: m.clock.Now(), Op: op, Err: err}
}

// NextArrivalAt returns the due time of the earliest pending submission —
// the machine's next externally interesting time on a DES timeline — and
// false when no arrivals are pending.
func (m *Machine) NextArrivalAt() (float64, bool) {
	if len(m.arrivals) == 0 {
		return 0, false
	}
	return m.arrivals[0].At, true
}

// probeState is what a probe quantum left on one CPU beyond its counter
// delta: the state needed to certify that replaying the quantum is exact.
type probeState struct {
	last QuantumStats // the stats the quantum produced
	rem  uint64       // idle-cursor instructions left in phase after the probe
}

func subSample(a, b counters.Sample) counters.Sample {
	return counters.Sample{
		Instructions: a.Instructions - b.Instructions,
		Cycles:       a.Cycles - b.Cycles,
		HaltedCycles: a.HaltedCycles - b.HaltedCycles,
		L2Refs:       a.L2Refs - b.L2Refs,
		L3Refs:       a.L3Refs - b.L3Refs,
		MemRefs:      a.MemRefs - b.MemRefs,
	}
}

// steadyEligible reports whether the machine's next quantum is a pure
// function of its current per-quantum state — the precondition for
// probe-and-replay. It requires: no matured or runnable work, no stolen
// daemon time, no throttle still settling, and no RNG consumption per
// quantum. RNG is consumed by the latency-jitter draw whenever any CPU
// runs at f > 0, and by Monte-Carlo execution when the hot idle loop
// actually executes, so those configurations are only eligible fully
// throttled.
func (m *Machine) steadyEligible() bool {
	now := m.clock.Now()
	if len(m.arrivals) > 0 && m.arrivals[0].At <= now {
		return false
	}
	anyHot := false
	for _, c := range m.cpus {
		if c.mix != nil && !c.mix.Done() {
			return false
		}
		if c.stolenDebt > 0 {
			return false
		}
		if c.throt.Settling(now) {
			return false
		}
		if c.throt.Effective(now) > 0 {
			anyHot = true
		}
	}
	if anyHot {
		if m.cfg.LatencyJitterSigma != 0 {
			return false
		}
		if m.cfg.Idle == IdleHot && m.cfg.MonteCarloExec {
			return false
		}
	}
	return true
}

// FastForwardQuanta advances exactly n dispatch quanta, equivalent —
// byte for byte on counters, energy, clock, completions and RNG state,
// and on the history and baselines of sampler s — to n iterations of
// { StepQuantum(); s.Collect() }. s may be nil (no sampler); otherwise it
// must read this machine. Steady spans are replayed in bulk and their
// windows written to s in bulk; everything else steps and collects.
func (m *Machine) FastForwardQuanta(n int, s *counters.Sampler) error {
	if n < 0 {
		return m.stepError("fast-forward", fmt.Errorf("negative quantum count %d", n))
	}
	// A sampler over this machine has its CPU count, and the probes'
	// Collect calls prime it, so a replay can always write its windows.
	if s != nil && s.Reader() != m {
		return m.stepError("fast-forward", fmt.Errorf("sampler does not read this machine"))
	}
	for n > 0 {
		k, err := m.fastForwardSpan(n, s)
		if err != nil {
			return err
		}
		n -= k
	}
	return nil
}

// samplerSynced reports whether sampler s (if any) holds exactly what a
// Collect would read now: primed, with every baseline equal to the CPU's
// counters at the current time. Only then may a replay without probes
// write its windows, because the probes' Collect calls are what
// otherwise brings the sampler up to date.
func (m *Machine) samplerSynced(s *counters.Sampler) bool {
	if s == nil {
		return true
	}
	if !s.Primed() {
		return false
	}
	now := m.clock.Now()
	for i, c := range m.cpus {
		want := c.totals
		want.Time = now
		if s.Last(i) != want {
			return false
		}
	}
	return true
}

// fastForwardSpan advances between 1 and n quanta and reports how many.
func (m *Machine) fastForwardSpan(n int, s *counters.Sampler) (int, error) {
	// A certificate from earlier probes still holds while nothing has
	// touched the machine: replay at once, with no probes.
	if m.ffCert && m.steadyEligible() && m.samplerSynced(s) {
		if k := m.replayBound(n); k > 0 {
			return k, m.replay(k, s)
		}
	}
	stepOne := func() error {
		if err := m.StepQuantum(); err != nil {
			return err
		}
		if s != nil {
			return s.Collect()
		}
		return nil
	}
	// A replay only pays for itself past two probe quanta.
	if n < 3 || !m.steadyEligible() {
		if err := stepOne(); err != nil {
			return 0, err
		}
		return 1, nil
	}
	if cap(m.ffBase) < len(m.cpus) {
		m.ffBase = make([]counters.Sample, len(m.cpus))
		m.ffDelta = make([]counters.Sample, len(m.cpus))
		m.ffProbe = make([]probeState, len(m.cpus))
	}
	m.ffBase = m.ffBase[:len(m.cpus)]
	m.ffDelta = m.ffDelta[:len(m.cpus)]
	m.ffProbe = m.ffProbe[:len(m.cpus)]

	// Probe 1: a real quantum, measured. Its delta may still carry
	// transients (contention coupling reaches steady state one quantum
	// after the workload does), so it only anchors the comparison.
	for i, c := range m.cpus {
		m.ffBase[i] = c.totals
	}
	if err := stepOne(); err != nil {
		return 0, err
	}
	for i, c := range m.cpus {
		m.ffDelta[i] = subSample(c.totals, m.ffBase[i])
		m.ffProbe[i] = probeState{last: c.last, rem: c.idleCursor.RemainingInPhase()}
	}
	done := 1

	// Probe 2: certify. If it reproduces probe 1 exactly, the quantum is
	// a fixed point of the machine state and replaying it is exact.
	for i, c := range m.cpus {
		m.ffBase[i] = c.totals
	}
	if err := stepOne(); err != nil {
		return done, err
	}
	done = 2
	steady := m.steadyEligible()
	for i, c := range m.cpus {
		p := &m.ffProbe[i]
		d := subSample(c.totals, m.ffBase[i])
		rem := c.idleCursor.RemainingInPhase()
		if d != m.ffDelta[i] || c.last != p.last || rem != p.rem-d.Instructions {
			steady = false
		}
	}
	if !steady {
		return done, nil
	}
	// The certificate outlives this span: it holds until a real step or
	// an outside change to the machine clears it (see Machine.ffCert).
	m.ffCert = true
	k := m.replayBound(n - done)
	if k <= 0 {
		return done, nil
	}
	return done + k, m.replay(k, s)
}

// replayBound clips a replay of up to n certified quanta: it stops a
// full quantum short of the next arrival (float-safe: probes and
// fallback steps absorb the boundary), and keeps every idle cursor
// comfortably inside its current phase so each replayed quantum sees the
// same in-phase headroom the probes did.
func (m *Machine) replayBound(n int) int {
	k := n
	if len(m.arrivals) > 0 {
		if kArr := int((m.arrivals[0].At-m.clock.Now())/m.cfg.Quantum) - 1; kArr < k {
			k = kArr
		}
	}
	for i, c := range m.cpus {
		dI := m.ffDelta[i].Instructions
		if dI == 0 {
			continue
		}
		rem := c.idleCursor.RemainingInPhase()
		if rem < 2*dI+2 {
			return 0
		}
		if kc := int((rem - 2*dI - 2) / dI); kc < k {
			k = kc
		}
	}
	return k
}

// replay runs the certified quantum k times. Integer counter work is
// batched; the clock and energy meters run their per-quantum float
// additions so accumulated rounding matches the stepped engine bit for
// bit. With a sampler, the loop also records each replayed quantum's
// clock value, from which the sampler writes the windows k Collect calls
// would have.
func (m *Machine) replay(k int, s *counters.Sampler) error {
	dt := m.cfg.Quantum
	cpuP := m.TotalCPUPower()
	sysP := m.cfg.NonCPU + cpuP
	for i, c := range m.cpus {
		d := &m.ffDelta[i]
		c.totals.AddN(*d, uint64(k))
		if d.Instructions > 0 {
			c.idleCursor.AdvanceWithinPhase(d.Instructions * uint64(k))
		}
	}
	// Validate exactly as the per-meter calls would, then run all five
	// accumulator chains (two meters' energy+elapsed, the clock) in one
	// fused loop: each chain still performs its per-quantum addition in
	// sequence — bit-identical to k separate Accumulate/Tick calls — but
	// the independent chains overlap in the pipeline instead of running
	// back to back.
	if err := m.cpuEnergy.AccumulateRepeat(cpuP, dt, 0); err != nil {
		return m.stepError("cpu-energy", err)
	}
	if err := m.energy.AccumulateRepeat(sysP, dt, 0); err != nil {
		return m.stepError("system-energy", err)
	}
	var ends []float64
	if s != nil {
		if cap(m.ffEnds) < k {
			m.ffEnds = make([]float64, k)
		}
		ends = m.ffEnds[:k]
	}
	cpuT, cpuN := m.cpuEnergy.ReplayCells()
	sysT, sysN := m.energy.ReplayCells()
	nowC := m.clock.ReplayCell()
	cpuInc := units.EnergyOver(cpuP, dt)
	sysInc := units.EnergyOver(sysP, dt)
	q := m.clock.Quantum()
	ct, cn, st, sn, now := *cpuT, *cpuN, *sysT, *sysN, *nowC
	for j := 0; j < k; j++ {
		ct += cpuInc
		cn += dt
		st += sysInc
		sn += dt
		now += q
		if j < len(ends) {
			ends[j] = now
		}
	}
	*cpuT, *cpuN, *sysT, *sysN, *nowC = ct, cn, st, sn, now
	if s != nil {
		s.Replay(m.ffDelta, ends)
	}
	return nil
}

// AdvanceTo advances the machine to simulation time t — inclusive of the
// quantum containing t, exactly like RunUntil — fast-forwarding steady
// spans. The result is byte-identical to RunUntil(t) on every
// configuration; the only difference is wall-clock cost.
func (m *Machine) AdvanceTo(t float64) error {
	for m.clock.Now() < t {
		n := int((t - m.clock.Now()) / m.cfg.Quantum)
		if n < 1 {
			n = 1
		}
		if err := m.FastForwardQuanta(n, nil); err != nil {
			return err
		}
	}
	return nil
}
