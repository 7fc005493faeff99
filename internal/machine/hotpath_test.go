package machine

import (
	"testing"

	"repro/internal/memhier"
	"repro/internal/workload"
)

// hotPathMachine is a p630 with an endless workload on every CPU so no
// quantum completes a job (completions append to the machine's log).
// Noise stays on: the RNG draw is part of the steady-state step.
func hotPathMachine(tb testing.TB) *Machine {
	tb.Helper()
	m, err := New(P630Config())
	if err != nil {
		tb.Fatal(err)
	}
	prog := workload.Program{Name: "endless", Phases: []workload.Phase{{
		Name: "p", Alpha: 1.2,
		Rates:        memhier.AccessRates{L2PerInstr: 0.02, L3PerInstr: 0.004, MemPerInstr: 0.01},
		Instructions: 1e15,
	}}}
	for cpu := 0; cpu < m.NumCPUs(); cpu++ {
		mix, err := workload.NewMix(prog)
		if err != nil {
			tb.Fatal(err)
		}
		if err := m.SetMix(cpu, mix); err != nil {
			tb.Fatal(err)
		}
	}
	m.RunUntil(20) // reach steady state
	return m
}

// TestStepZeroAlloc pins the other half of the hot-path guarantee: a
// steady-state dispatch quantum allocates nothing.
func TestStepZeroAlloc(t *testing.T) {
	m := hotPathMachine(t)
	allocs := testing.AllocsPerRun(200, func() { m.Step() })
	if allocs != 0 {
		t.Fatalf("steady-state Step allocates %v per quantum, want 0", allocs)
	}
}

// TestFastForwardSampledZeroAlloc pins the skipped-quantum half: once the
// replay scratch has grown, fast-forwarding a halted-idle machine with a
// sampler attached allocates nothing, bulk window writes included — for
// long spans and for the single quanta a coordinator Step advances.
func TestFastForwardSampledZeroAlloc(t *testing.T) {
	cfg := quietConfig()
	cfg.Idle = IdleHalt
	m, s := newSampled(t, cfg, 41)
	const n = 60
	if k, err := m.fastForwardSpan(n, s); err != nil || k != n {
		t.Fatalf("warm-up span advanced %d of %d quanta (%v): replay did not engage", k, n, err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := m.FastForwardQuanta(n, s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("sampled FastForwardQuanta(%d) allocates %v per op, want 0", n, allocs)
	}
	// The coordinator's Step path: single quanta replayed on the
	// certificate the spans left behind.
	allocs = testing.AllocsPerRun(100, func() {
		if err := m.FastForwardQuanta(1, s); err != nil {
			t.Fatal(err)
		}
	})
	if !m.ffCert {
		t.Fatal("single-quantum calls cleared the certificate: they stepped instead of replaying")
	}
	if allocs != 0 {
		t.Fatalf("sampled FastForwardQuanta(1) allocates %v per op, want 0", allocs)
	}
}

// BenchmarkMachineStep measures one dispatch quantum across the four CPUs.
func BenchmarkMachineStep(b *testing.B) {
	m := hotPathMachine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
}
