package machine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/counters"
	"repro/internal/workload"
)

// ffFingerprint renders every observable the DES fast path must preserve,
// with %v so any bit-level float divergence shows.
func ffFingerprint(m *Machine) string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%v e=%v ce=%v pend=%d\n", m.Now(), m.Energy(), m.CPUEnergy(), m.PendingArrivals())
	for i := 0; i < m.NumCPUs(); i++ {
		s, err := m.ReadCounters(i)
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(&b, "cpu%d %+v last=%+v busy=%v f=%v idle=%v\n",
			i, s, m.LastQuantum(i), m.BusySeconds(i), m.EffectiveFrequency(i), m.IsIdle(i))
	}
	for _, c := range m.Completions() {
		fmt.Fprintf(&b, "done %d %s %v\n", c.CPU, c.Program, c.At)
	}
	return b.String()
}

// diffAdvance drives two identically configured machines — one with the
// quantum reference engine (RunUntil), one with AdvanceTo — applying the
// same mutations at every checkpoint, and requires byte-identical
// fingerprints throughout.
func diffAdvance(t *testing.T, cfg Config, checkpoints []float64, apply func(m *Machine, ck float64)) {
	t.Helper()
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	des, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if apply != nil {
		apply(ref, 0)
		apply(des, 0)
	}
	for _, ck := range checkpoints {
		ref.RunUntil(ck)
		if err := des.AdvanceTo(ck); err != nil {
			t.Fatalf("AdvanceTo(%v): %v", ck, err)
		}
		want, got := ffFingerprint(ref), ffFingerprint(des)
		if got != want {
			t.Fatalf("diverged at checkpoint t=%v:\n--- stepped ---\n%s--- advanced ---\n%s", ck, want, got)
		}
		if apply != nil {
			apply(ref, ck)
			apply(des, ck)
		}
	}
}

// burst returns n small jobs arriving together at time at, round-robin over
// the first three CPUs.
func burst(at float64, n int) workload.Schedule {
	var s workload.Schedule
	for i := 0; i < n; i++ {
		s = append(s, workload.Arrival{At: at, CPU: i % 3, Program: workload.Gzip(0.002)})
	}
	return s
}

func submitBursts(t *testing.T) func(m *Machine, ck float64) {
	return func(m *Machine, ck float64) {
		if ck != 0 {
			return
		}
		if err := m.Submit(burst(0.48, 3)); err != nil {
			t.Fatal(err)
		}
		if err := m.Submit(burst(3.013, 2)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAdvanceToMatchesStepIdleHalt(t *testing.T) {
	cfg := quietConfig()
	cfg.Idle = IdleHalt
	diffAdvance(t, cfg, []float64{0.25, 1.0, 2.0, 5.0, 12.0, 30.0}, submitBursts(t))
}

func TestAdvanceToMatchesStepIdleHot(t *testing.T) {
	// Hot idle retires instructions every quantum, so the replay path must
	// track the idle cursor across spans long enough to wrap its spin
	// phase (~82 quanta per wrap at nominal frequency).
	diffAdvance(t, quietConfig(), []float64{0.25, 1.0, 2.0, 5.0, 12.0, 60.0}, submitBursts(t))
}

func TestAdvanceToMatchesStepFullNoise(t *testing.T) {
	// The paper-default config draws jitter RNG every busy quantum, so
	// probe-and-replay must refuse to certify spans and fall back to
	// stepping — still byte-identical, just not fast.
	diffAdvance(t, P630Config(), []float64{0.25, 1.0, 3.0, 5.0}, submitBursts(t))
}

func TestAdvanceToMatchesStepWithActuation(t *testing.T) {
	cfg := quietConfig()
	cfg.ThrottleSettle = 0.0005 // exercise the Settling eligibility gate
	freqs := cfg.Table.Frequencies()
	apply := func(m *Machine, ck float64) {
		switch ck {
		case 0:
			if err := m.Submit(burst(0.48, 3)); err != nil {
				t.Fatal(err)
			}
		case 1.0:
			for i := 0; i < m.NumCPUs(); i++ {
				if err := m.SetFrequency(i, freqs[0]); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.StealTime(0, 0.0031); err != nil {
				t.Fatal(err)
			}
		case 5.0:
			if err := m.SetFrequency(1, freqs[len(freqs)-1]); err != nil {
				t.Fatal(err)
			}
			if err := m.SetFrequency(2, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	diffAdvance(t, cfg, []float64{0.25, 1.0, 2.0, 5.0, 9.0, 20.0}, apply)
}

// samplerState renders each CPU's baseline and every window its history
// holds, newest first — the state a bulk replay must reproduce exactly.
func samplerState(s *counters.Sampler) string {
	var b strings.Builder
	for cpu := 0; cpu < s.NumCPUs(); cpu++ {
		h := s.History(cpu)
		fmt.Fprintf(&b, "cpu%d last=%+v\n", cpu, s.Last(cpu))
		for i := 0; i < h.Len(); i++ {
			fmt.Fprintf(&b, "  %+v\n", h.Last(i))
		}
	}
	return b.String()
}

// newSampled builds a machine from cfg and a sampler over it.
func newSampled(t *testing.T, cfg Config, histLen int) (*Machine, *counters.Sampler) {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := counters.NewSampler(m, histLen)
	if err != nil {
		t.Fatal(err)
	}
	return m, s
}

// stepCollect is the reference FastForwardQuanta(n, s) must reproduce.
func stepCollect(t *testing.T, m *Machine, s *counters.Sampler, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := m.StepQuantum(); err != nil {
			t.Fatal(err)
		}
		if err := s.Collect(); err != nil {
			t.Fatal(err)
		}
	}
}

// requireSameSampled fails unless both machines and both samplers are
// byte-identical.
func requireSameSampled(t *testing.T, ref *Machine, refS *counters.Sampler, des *Machine, desS *counters.Sampler) {
	t.Helper()
	if got, want := samplerState(desS), samplerState(refS); got != want {
		t.Fatalf("sampler diverged:\n--- stepped ---\n%s--- advanced ---\n%s", want, got)
	}
	if got, want := ffFingerprint(des), ffFingerprint(ref); got != want {
		t.Fatalf("final state diverged:\n--- stepped ---\n%s--- advanced ---\n%s", want, got)
	}
}

func TestFastForwardSamplerMatchesStep(t *testing.T) {
	// A fresh sampler over a machine with a burst mid-run: the probes
	// prime it, replays write its windows in bulk, and the burst's
	// quanta collect one by one — the history must match collecting
	// after every stepped quantum.
	const n = 400
	ref, refS := newSampled(t, quietConfig(), n)
	des, desS := newSampled(t, quietConfig(), n)
	for _, m := range []*Machine{ref, des} {
		if err := m.Submit(burst(1.507, 2)); err != nil {
			t.Fatal(err)
		}
	}
	stepCollect(t, ref, refS, n)
	if err := des.FastForwardQuanta(n, desS); err != nil {
		t.Fatal(err)
	}
	if got := desS.History(0).Len(); got != n-1 {
		t.Fatalf("history holds %d windows, want %d", got, n-1)
	}
	requireSameSampled(t, ref, refS, des, desS)
}

func TestSamplerReplayMatchesCollect(t *testing.T) {
	// Bulk-written windows against per-quantum Collect, with the replay
	// span (n-2 quanta after the probes on a halted machine) below, equal
	// to and above the history capacity. The rings are pre-filled off a
	// zero offset so the bulk write wraps. busy-steady spins the hot idle
	// loop at a different frequency per CPU, so every CPU has its own
	// non-zero delta.
	const capacity = 41
	halted := quietConfig()
	halted.Idle = IdleHalt
	configs := []struct {
		name      string
		cfg       Config
		wholeSpan bool // the first span must cover all n quanta, not just replay
		setup     func(m *Machine)
	}{
		{"halted-idle", halted, true, func(*Machine) {}},
		{"busy-steady", quietConfig(), false, func(m *Machine) {
			table := m.Config().Table
			for i := 0; i < m.NumCPUs(); i++ {
				if err := m.SetFrequency(i, table.FrequencyAtIndex(i%table.Len())); err != nil {
					t.Fatal(err)
				}
			}
		}},
	}
	for _, c := range configs {
		for _, n := range []int{capacity / 2, capacity + 2, 5 * capacity} {
			t.Run(fmt.Sprintf("%s/k=%d", c.name, n-2), func(t *testing.T) {
				ref, refS := newSampled(t, c.cfg, capacity)
				des, desS := newSampled(t, c.cfg, capacity)
				for _, p := range []struct {
					m *Machine
					s *counters.Sampler
				}{{ref, refS}, {des, desS}} {
					c.setup(p.m)
					stepCollect(t, p.m, p.s, 7)
				}
				stepCollect(t, ref, refS, n)
				k, err := des.fastForwardSpan(n, desS)
				if err != nil {
					t.Fatal(err)
				}
				if k < 3 || c.wholeSpan && k != n {
					t.Fatalf("first span advanced %d of %d quanta: replay did not engage", k, n)
				}
				if err := des.FastForwardQuanta(n-k, desS); err != nil {
					t.Fatal(err)
				}
				requireSameSampled(t, ref, refS, des, desS)
			})
		}
	}
}

func TestFastForwardCertificateLifetime(t *testing.T) {
	// A machine advanced only through FastForwardQuanta — single quanta
	// and longer spans — against a stepped twin that collects after every
	// quantum. Between calls both get the same outside changes. A
	// frequency request that leaves the throttle as it was must keep the
	// probes' certificate, so later single-quantum calls replay on it;
	// every other change must clear it. An unsampled fast-forward leaves
	// the sampler behind the machine, so the next sampled call must not
	// replay into it.
	halted := quietConfig()
	halted.Idle = IdleHalt
	for _, c := range []struct {
		name string
		cfg  Config
		// steady: every probed span certifies (no idle-loop phase to wrap).
		steady bool
	}{{"halted-idle", halted, true}, {"hot-idle", quietConfig(), false}} {
		t.Run(c.name, func(t *testing.T) {
			ref, refS := newSampled(t, c.cfg, 41)
			des, desS := newSampled(t, c.cfg, 41)
			table := c.cfg.Table
			both := func(f func(m *Machine) error) {
				for _, m := range []*Machine{ref, des} {
					if err := f(m); err != nil {
						t.Fatal(err)
					}
				}
			}
			freqs := func(shift int) func(m *Machine) error {
				return func(m *Machine) error {
					for i := 0; i < m.NumCPUs(); i++ {
						if err := m.SetFrequency(i, table.FrequencyAtIndex((i+shift)%table.Len())); err != nil {
							return err
						}
					}
					return nil
				}
			}
			// advance moves both machines n quanta: the twin by stepping
			// and collecting, des by FastForwardQuanta calls of per quanta.
			advance := func(n, per int) {
				t.Helper()
				stepCollect(t, ref, refS, n)
				for left := n; left > 0; left -= per {
					if err := des.FastForwardQuanta(min(per, left), desS); err != nil {
						t.Fatal(err)
					}
				}
				requireSameSampled(t, ref, refS, des, desS)
			}
			cert := func(step string, want bool) {
				t.Helper()
				if des.ffCert != want {
					t.Fatalf("%s: certificate held = %v, want %v", step, des.ffCert, want)
				}
			}
			recertify := func(step string) {
				t.Helper()
				advance(60, 60)
				if c.steady {
					cert(step, true)
				}
			}

			both(freqs(0))
			advance(5, 1)
			recertify("first span")
			held := des.ffCert
			advance(12, 1)
			cert("single quanta", held)

			both(freqs(0))
			cert("same duty", held)
			advance(6, 1)
			cert("single quanta after same duty", held)

			both(freqs(1))
			cert("changed duty", false)
			advance(4, 1)
			recertify("after changed duty")

			both(func(m *Machine) error { return m.SetMix(0, nil) })
			cert("SetMix", false)
			advance(4, 1)
			recertify("after SetMix")

			both(func(m *Machine) error { return m.Submit(burst(m.Now()+0.1, 2)) })
			cert("Submit", false)
			advance(3, 1)
			advance(80, 40)
			recertify("after burst")

			both(func(m *Machine) error { return m.StealTime(1, 0.0031) })
			cert("StealTime", false)
			advance(6, 1)
			recertify("after StealTime")
			advance(7, 1)

			// Fast-forward without the sampler, then sampled single quanta:
			// the sampler's first window must span the unsampled stretch.
			for i := 0; i < 25; i++ {
				if err := ref.StepQuantum(); err != nil {
					t.Fatal(err)
				}
			}
			if err := des.FastForwardQuanta(25, nil); err != nil {
				t.Fatal(err)
			}
			advance(5, 1)
			advance(30, 30)
			advance(9, 1)
		})
	}
}

func TestFastForwardRejectsForeignSampler(t *testing.T) {
	m := newQuiet(t)
	_, other := newSampled(t, quietConfig(), 4)
	var se *StepError
	if err := m.FastForwardQuanta(10, other); !errors.As(err, &se) {
		t.Fatalf("FastForwardQuanta with another machine's sampler = %v, want *StepError", err)
	}
	if m.Now() != 0 {
		t.Fatalf("rejected fast-forward advanced the clock to %v", m.Now())
	}
}

func TestFastForwardSpanReplaysIdleHalt(t *testing.T) {
	// White box: a halted-idle machine has a trivially steady quantum, so
	// one span should cover the full request after the two probes.
	cfg := quietConfig()
	cfg.Idle = IdleHalt
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k, err := m.fastForwardSpan(500, nil)
	if err != nil {
		t.Fatal(err)
	}
	if k != 500 {
		t.Fatalf("fastForwardSpan advanced %d quanta, want 500 (replay did not engage)", k)
	}
}

func TestFastForwardSpanReplaysIdleHot(t *testing.T) {
	// Hot idle replays too, but each span is clipped to stay inside the
	// spin loop's current phase; the wrap quanta run as real steps.
	m, err := New(quietConfig())
	if err != nil {
		t.Fatal(err)
	}
	k, err := m.fastForwardSpan(500, nil)
	if err != nil {
		t.Fatal(err)
	}
	if k <= 2 || k > 500 {
		t.Fatalf("fastForwardSpan advanced %d quanta, want a bounded replay in (2, 500]", k)
	}
}

func TestFastForwardRejectsNegative(t *testing.T) {
	m := newQuiet(t)
	var se *StepError
	if err := m.FastForwardQuanta(-1, nil); !errors.As(err, &se) {
		t.Fatalf("FastForwardQuanta(-1) = %v, want *StepError", err)
	}
	if err := m.AdvanceTo(0); err != nil || m.Now() != 0 {
		t.Fatalf("AdvanceTo(0) = %v at t=%v, want no-op", err, m.Now())
	}
}

func TestNextArrivalAt(t *testing.T) {
	m := newQuiet(t)
	if _, ok := m.NextArrivalAt(); ok {
		t.Fatal("fresh machine reports a pending arrival")
	}
	if err := m.Submit(burst(2.5, 1)); err != nil {
		t.Fatal(err)
	}
	if at, ok := m.NextArrivalAt(); !ok || at != 2.5 {
		t.Fatalf("NextArrivalAt = %v, %v; want 2.5, true", at, ok)
	}
}

func TestStepErrorFormatting(t *testing.T) {
	cause := errors.New("negative energy")
	err := &StepError{Machine: "p630", At: 1.23, Op: "cpu-energy", Err: cause}
	msg := err.Error()
	for _, want := range []string{"p630", "1.23", "cpu-energy", "negative energy"} {
		if !strings.Contains(msg, want) {
			t.Errorf("StepError message %q missing %q", msg, want)
		}
	}
	if !errors.Is(err, cause) {
		t.Error("errors.Is does not reach the wrapped cause")
	}
}

func TestCompletionHookOnAdvancePath(t *testing.T) {
	// Completions fired through a hook must arrive identically on both
	// engines (the serving station depends on exact completion times).
	cfg := quietConfig()
	run := func(advance bool) []string {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		m.SetCompletionHook(func(c JobCompletion) {
			got = append(got, fmt.Sprintf("%d %s %v", c.CPU, c.Program, c.At))
		})
		if err := m.Submit(burst(0.753, 3)); err != nil {
			t.Fatal(err)
		}
		if advance {
			if err := m.AdvanceTo(8.0); err != nil {
				t.Fatal(err)
			}
		} else {
			m.RunUntil(8.0)
		}
		if len(m.Completions()) != 0 {
			t.Fatal("hooked completions leaked into the slice")
		}
		return got
	}
	want, got := run(false), run(true)
	if len(want) == 0 {
		t.Fatal("no completions recorded; burst never ran")
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("hook streams diverged:\nstepped:  %v\nadvanced: %v", want, got)
	}
}

func BenchmarkAdvanceIdleHour(b *testing.B) {
	cfg := quietConfig()
	cfg.Idle = IdleHalt
	for i := 0; i < b.N; i++ {
		m, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.AdvanceTo(3600); err != nil {
			b.Fatal(err)
		}
	}
}
