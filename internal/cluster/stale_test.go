package cluster

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/units"
	"repro/internal/workload"
)

// A coordinator actuation spends one RTT in flight. If the node's machine
// is swapped (reprovisioned, reset) while the message is in transit, the
// stale actuation must be dropped rather than applied to the replacement,
// which the decision was never made for.
func TestStaleActuationNotAppliedAfterMachineSwap(t *testing.T) {
	// A budget of 200 W over two 4-CPU nodes forces demotions below f_max,
	// so in-flight actuations differ from a fresh machine's default.
	c := newTwoNodeCluster(t, units.Watts(200))

	// Run until a scheduling pass has queued actuations.
	for len(c.pending) == 0 {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	target := c.pending[0].proc.Node
	inflight := map[int]units.Frequency{}
	for _, p := range c.pending {
		if p.proc.Node == target {
			inflight[p.proc.CPU] = p.f
		}
	}

	// Swap the target node's machine while the actuations are in flight.
	mcfg := quietMachineConfig()
	mcfg.Seed = 99
	fresh, err := machine.New(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	c.nodes[target].M = fresh
	defaults := make([]units.Frequency, fresh.NumCPUs())
	for cpu := range defaults {
		defaults[cpu] = fresh.EffectiveFrequency(cpu)
	}

	// Step past the RTT so every in-flight actuation matures, but stop
	// short of the next timer pass, which would legitimately re-actuate
	// the fresh machine.
	for i := 0; i < 3; i++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.pending) != 0 {
		t.Fatalf("%d actuations still in flight; test stepped too few quanta", len(c.pending))
	}
	for cpu, f := range inflight {
		if f == defaults[cpu] {
			continue // indistinguishable from the default; no signal
		}
		if got := fresh.EffectiveFrequency(cpu); got == f {
			t.Errorf("stale actuation %v delivered to swapped machine cpu %d", f, cpu)
		}
	}
}

// A node's sampler must follow its machine. After the swap the
// coordinator builds a sampler over the replacement at the next advance;
// without that it would keep reading the old, frozen machine, whose
// zero-count windows give the node no observations from then on.
func TestSwappedMachineGetsObservations(t *testing.T) {
	c := newTwoNodeCluster(t, units.Watts(900))
	if err := c.Run(0.3); err != nil {
		t.Fatal(err)
	}
	const target = 1
	mcfg := quietMachineConfig()
	mcfg.Seed = 99
	mcfg.NumCPUs = 8 // more CPUs than the sampler it replaces covers
	fresh, err := machine.New(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	for cpu := 0; cpu < fresh.NumCPUs(); cpu++ {
		mix, err := workload.NewMix(cpuProg(1e12))
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.SetMix(cpu, mix); err != nil {
			t.Fatal(err)
		}
	}
	c.nodes[target].M = fresh
	// Before the next advance no window describes the new machine.
	for _, in := range c.buildInputs() {
		if in.Proc.Node == target && in.Obs != nil {
			t.Fatalf("cpu %d of the swapped node is observed before any window of it was collected", in.Proc.CPU)
		}
	}
	// FastForwardQuanta rejects a sampler over another machine, so every
	// Step that succeeds advanced the new machine on the homogeneous
	// FastForwardQuanta path with a sampler of its own.
	for q := 0; q < c.cfg.SchedulePeriods+2; q++ {
		if err := c.Step(); err != nil {
			t.Fatalf("quantum %d after the swap: %v", q, err)
		}
	}
	if c.nodes[target].sampler.Reader() != fresh {
		t.Fatal("the swapped node's sampler still reads the old machine")
	}
	for _, in := range c.buildInputs() {
		if in.Proc.Node != target {
			continue
		}
		if in.Obs == nil || in.Obs.Delta.Instructions == 0 {
			t.Errorf("cpu %d of the swapped node has no observation: %+v", in.Proc.CPU, in.Obs)
		}
	}
}
