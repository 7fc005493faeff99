package counters

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSampleSub(t *testing.T) {
	prev := Sample{Time: 1.0, Instructions: 100, Cycles: 200, L2Refs: 10, L3Refs: 5, MemRefs: 2}
	cur := Sample{Time: 1.5, Instructions: 300, Cycles: 600, L2Refs: 25, L3Refs: 9, MemRefs: 4, HaltedCycles: 7}
	d, err := cur.Sub(prev)
	if err != nil {
		t.Fatal(err)
	}
	if d.Window != 0.5 || d.Instructions != 200 || d.Cycles != 400 ||
		d.L2Refs != 15 || d.L3Refs != 4 || d.MemRefs != 2 || d.HaltedCycles != 7 {
		t.Errorf("delta = %+v", d)
	}
}

func TestSampleSubErrors(t *testing.T) {
	prev := Sample{Time: 2.0, Instructions: 10, Cycles: 10, HaltedCycles: 10, L2Refs: 10, L3Refs: 10, MemRefs: 10}
	for _, tc := range []struct {
		name string // must appear in the error
		back func(s *Sample)
	}{
		{"out of order", func(s *Sample) { s.Time = 1.0 }},
		{"instructions", func(s *Sample) { s.Instructions = 9 }},
		{"cycles", func(s *Sample) { s.Cycles = 9 }},
		{"halted", func(s *Sample) { s.HaltedCycles = 9 }},
		{"l2", func(s *Sample) { s.L2Refs = 9 }},
		{"l3", func(s *Sample) { s.L3Refs = 9 }},
		{"mem", func(s *Sample) { s.MemRefs = 9 }},
	} {
		cur := prev
		cur.Time = 3.0
		tc.back(&cur)
		_, err := cur.Sub(prev)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.name) {
			t.Errorf("%s: error %q does not name it", tc.name, err)
		}
	}
}

func TestDeltaAdd(t *testing.T) {
	a := Delta{Window: 0.01, Instructions: 10, Cycles: 20, L2Refs: 1}
	b := Delta{Window: 0.01, Instructions: 30, Cycles: 40, MemRefs: 2}
	sum := a.Add(b)
	if sum.Window != 0.02 || sum.Instructions != 40 || sum.Cycles != 60 ||
		sum.L2Refs != 1 || sum.MemRefs != 2 {
		t.Errorf("sum = %+v", sum)
	}
}

func TestDeltaDerivedMetrics(t *testing.T) {
	d := Delta{Window: 0.01, Instructions: 1000, Cycles: 2000, L2Refs: 100, L3Refs: 10, MemRefs: 5}
	if got := d.IPC(); got != 0.5 {
		t.Errorf("IPC = %v, want 0.5", got)
	}
	if got := d.L2PerInstr(); got != 0.1 {
		t.Errorf("L2PerInstr = %v", got)
	}
	if got := d.L3PerInstr(); got != 0.01 {
		t.Errorf("L3PerInstr = %v", got)
	}
	if got := d.MemPerInstr(); got != 0.005 {
		t.Errorf("MemPerInstr = %v", got)
	}
	if got := d.ObservedFrequencyHz(); got != 200000 {
		t.Errorf("ObservedFrequencyHz = %v, want 2e5", got)
	}
}

func TestDeltaZeroGuards(t *testing.T) {
	var d Delta
	if d.IPC() != 0 || d.L2PerInstr() != 0 || d.ObservedFrequencyHz() != 0 || d.HaltedFraction() != 0 {
		t.Error("zero delta should produce zero metrics, not NaN")
	}
	if !d.IsEmpty() {
		t.Error("zero delta should be empty")
	}
	if (Delta{Cycles: 1}).IsEmpty() {
		t.Error("non-zero delta reported empty")
	}
}

func TestHaltedFraction(t *testing.T) {
	d := Delta{Cycles: 25, HaltedCycles: 75}
	if got := d.HaltedFraction(); got != 0.75 {
		t.Errorf("HaltedFraction = %v, want 0.75", got)
	}
}

func TestDeltaValidate(t *testing.T) {
	if err := (Delta{Window: 0.01, Instructions: 100, Cycles: 100}).Validate(); err != nil {
		t.Errorf("good delta rejected: %v", err)
	}
	if err := (Delta{Window: -1}).Validate(); err == nil {
		t.Error("negative window accepted")
	}
	if err := (Delta{Instructions: 100, Cycles: 1}).Validate(); err == nil {
		t.Error("IPC=100 accepted")
	}
}

func TestSubThenAddRoundTrip(t *testing.T) {
	err := quick.Check(func(i1, c1, i2, c2 uint32) bool {
		a := Sample{Time: 0, Instructions: uint64(i1), Cycles: uint64(c1)}
		b := Sample{Time: 1, Instructions: uint64(i1) + uint64(i2), Cycles: uint64(c1) + uint64(c2)}
		d, err := b.Sub(a)
		if err != nil {
			return false
		}
		return d.Instructions == uint64(i2) && d.Cycles == uint64(c2) && d.Window == 1
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// scriptReader is a Reader whose counters move only when the test says
// so: advance adds one delta per CPU and moves the clock by dt, so every
// read of one Collect reports the same time. failAt and skewAt pick a
// CPU whose read fails or reports a later time (-1 for none).
type scriptReader struct {
	now            float64
	totals         []Sample
	failAt, skewAt int
}

func newScriptReader(n int) *scriptReader {
	return &scriptReader{totals: make([]Sample, n), failAt: -1, skewAt: -1}
}

func (r *scriptReader) NumCPUs() int { return len(r.totals) }

func (r *scriptReader) ReadCounters(cpu int) (Sample, error) {
	if cpu == r.failAt {
		return Sample{}, fmt.Errorf("injected failure")
	}
	s := r.totals[cpu]
	s.Time = r.now
	if cpu == r.skewAt {
		s.Time += 0.001
	}
	return s, nil
}

// advance moves the clock by dt and every CPU's counters by ds[cpu].
func (r *scriptReader) advance(dt float64, ds []Sample) {
	r.now += dt
	for cpu := range r.totals {
		r.totals[cpu].AddN(ds[cpu], 1)
	}
}

// samplerState renders every baseline and every held window by %v, so
// any bit-level difference shows.
func samplerState(s *Sampler) string {
	var b strings.Builder
	fmt.Fprintf(&b, "primed=%v len=%d\n", s.Primed(), s.Len())
	for cpu := 0; cpu < s.NumCPUs(); cpu++ {
		h := s.History(cpu)
		fmt.Fprintf(&b, "cpu%d last=%+v\n", cpu, s.Last(cpu))
		for i := 0; i < h.Len(); i++ {
			fmt.Fprintf(&b, "  %+v\n", h.Last(i))
		}
	}
	return b.String()
}

// mustSampler builds a primed sampler over a fresh script reader.
func mustSampler(t *testing.T, cpus, capacity int) (*Sampler, *scriptReader) {
	t.Helper()
	r := newScriptReader(cpus)
	s, err := NewSampler(r, capacity)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Collect(); err != nil {
		t.Fatal(err)
	}
	return s, r
}

func TestHistoryRing(t *testing.T) {
	s, r := mustSampler(t, 1, 3)
	h := s.History(0)
	if h.Len() != 0 {
		t.Errorf("fresh Len = %d", h.Len())
	}
	for i := 1; i <= 5; i++ {
		r.advance(0.01, []Sample{{Instructions: uint64(i)}})
		if err := s.Collect(); err != nil {
			t.Fatal(err)
		}
	}
	if h.Len() != 3 {
		t.Errorf("Len = %d, want 3", h.Len())
	}
	// Newest first: 5, 4, 3.
	for i, want := range []uint64{5, 4, 3} {
		if got := h.Last(i).Instructions; got != want {
			t.Errorf("Last(%d) = %d, want %d", i, got, want)
		}
	}
	if sum := h.SumLast(2); sum.Instructions != 9 {
		t.Errorf("SumLast(2) = %d, want 9", sum.Instructions)
	}
	// Requesting more than stored aggregates what exists.
	if sum := h.SumLast(10); sum.Instructions != 12 {
		t.Errorf("SumLast(10) = %d, want 12", sum.Instructions)
	}
}

// appendOnly is the reference model of a sampler history: every window
// ever recorded, oldest first, of which the newest capacity are held.
type appendOnly struct {
	capacity int
	all      []Delta
}

func (a *appendOnly) held() []Delta { return a.all[len(a.all)-min(len(a.all), a.capacity):] }

// last is the i-th newest held window.
func (a *appendOnly) last(i int) Delta {
	h := a.held()
	return h[len(h)-1-i]
}

// stale is the stale aggregate written the plain way: count the windows
// whose spans cover stale seconds, then add up to n older ones.
func (a *appendOnly) stale(stale float64, n int) (Delta, bool) {
	held := len(a.held())
	skip := 0
	var span float64
	for skip < held && span < stale {
		span += a.last(skip).Window
		skip++
	}
	if held <= skip {
		return Delta{}, false
	}
	var agg Delta
	for i, c := skip, 0; i < held && c < n; i, c = i+1, c+1 {
		agg = agg.Add(a.last(i))
	}
	return agg, true
}

// requireMatches compares every Last(i), every SumLast(n) and the stale
// aggregates at several staleness bounds against the reference, by %v.
func requireMatches(t *testing.T, s *Sampler, refs []appendOnly, step string) {
	t.Helper()
	for cpu := range refs {
		ref := &refs[cpu]
		h := s.History(cpu)
		if want := len(ref.held()); h.Len() != want {
			t.Fatalf("%s cpu %d: Len = %d, want %d", step, cpu, h.Len(), want)
		}
		for i := 0; i < h.Len(); i++ {
			if got, want := fmt.Sprintf("%+v", h.Last(i)), fmt.Sprintf("%+v", ref.last(i)); got != want {
				t.Fatalf("%s cpu %d: Last(%d) = %s, want %s", step, cpu, i, got, want)
			}
		}
		for n := 0; n <= h.Len()+1; n++ {
			want, _ := ref.stale(0, n)
			if got := h.SumLast(n); fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
				t.Fatalf("%s cpu %d: SumLast(%d) = %+v, want %+v", step, cpu, n, got, want)
			}
		}
		for _, rtt := range []float64{0, 0.002, 0.01, 0.015, 0.045, 0.3} {
			for _, n := range []int{1, 3, 10} {
				got, gotOK := s.StaleAggregate(cpu, rtt, n)
				want, wantOK := ref.stale(rtt, n)
				if gotOK != wantOK || fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
					t.Fatalf("%s cpu %d: StaleAggregate(%v, %d) = %+v %v, want %+v %v",
						step, cpu, rtt, n, got, gotOK, want, wantOK)
				}
			}
		}
	}
}

func TestHistoryMatchesAppendOnly(t *testing.T) {
	// Collect alone against a plain list that keeps every window: each
	// window differs from the last, so every window opens a run.
	for _, capacity := range []int{1, 2, 3, 41} {
		s, r := mustSampler(t, 1, capacity)
		refs := []appendOnly{{capacity: capacity}}
		for p := 1; p <= 200; p++ {
			prev := r.totals[0]
			prev.Time = r.now
			r.advance(float64(p)/7, []Sample{{Instructions: uint64(p * p), MemRefs: uint64(p)}})
			if err := s.Collect(); err != nil {
				t.Fatal(err)
			}
			cur, _ := r.ReadCounters(0)
			d, err := cur.Sub(prev)
			if err != nil {
				t.Fatal(err)
			}
			refs[0].all = append(refs[0].all, d)
			requireMatches(t, s, refs, fmt.Sprintf("cap %d push %d", capacity, p))
		}
	}
}

func TestHistoryRunsMatchAppendOnly(t *testing.T) {
	// Random interleavings of Collect and Replay against the append-only
	// model. Each CPU's delta is drawn from a small set, so windows
	// repeat (runs extend, replays continue a run) and change (new runs,
	// ring eviction); the clock accumulates by float addition so every
	// Window carries its own rounding.
	const cpus = 3
	for _, capacity := range []int{1, 2, 3, 41} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			s, r := mustSampler(t, cpus, capacity)
			refs := make([]appendOnly, cpus)
			for i := range refs {
				refs[i].capacity = capacity
			}
			pick := func() []Sample {
				ds := make([]Sample, cpus)
				for cpu := range ds {
					v := uint64(rng.Intn(3))
					ds[cpu] = Sample{Instructions: v * 1000, Cycles: v*2000 + 1, HaltedCycles: 7 * (2 - v), MemRefs: v}
				}
				return ds
			}
			ds := pick()
			for step := 0; step < 100; step++ {
				if rng.Intn(3) == 0 {
					ds = pick()
				}
				dt := 0.01
				if rng.Intn(5) == 0 {
					dt = 0.005 + rng.Float64()*0.02
				}
				k := 1
				if rng.Intn(2) == 0 {
					k = 1 + rng.Intn(2*capacity+3)
				}
				before := make([]Sample, cpus)
				for cpu := range before {
					before[cpu] = r.totals[cpu]
					before[cpu].Time = r.now
				}
				ends := make([]float64, k)
				for j := range ends {
					r.advance(dt, ds)
					ends[j] = r.now
					for cpu := range refs {
						cur, _ := r.ReadCounters(cpu)
						d, err := cur.Sub(before[cpu])
						if err != nil {
							t.Fatal(err)
						}
						refs[cpu].all = append(refs[cpu].all, d)
						before[cpu] = cur
					}
				}
				name := fmt.Sprintf("cap %d seed %d step %d", capacity, seed, step)
				if k == 1 && rng.Intn(2) == 0 {
					if err := s.Collect(); err != nil {
						t.Fatal(err)
					}
					name += " collect"
				} else {
					s.Replay(ds, ends)
					name += fmt.Sprintf(" replay %d", k)
				}
				for cpu := 0; cpu < cpus; cpu++ {
					if got, want := s.Last(cpu), before[cpu]; got != want {
						t.Fatalf("%s cpu %d: baseline %+v, want %+v", name, cpu, got, want)
					}
				}
				requireMatches(t, s, refs, name)
			}
		}
	}
}

func TestHistoryLastPanicsOutOfRange(t *testing.T) {
	s, r := mustSampler(t, 1, 2)
	r.advance(0.01, []Sample{{}})
	if err := s.Collect(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	s.History(0).Last(1)
}

func TestCollectRejectsMismatchedTimes(t *testing.T) {
	// One Collect is one reading of the machine: a CPU reporting another
	// time is an error, and nothing is recorded.
	s, r := mustSampler(t, 3, 4)
	r.advance(0.01, make([]Sample, 3))
	if err := s.Collect(); err != nil {
		t.Fatal(err)
	}
	before := samplerState(s)
	r.skewAt = 2
	r.advance(0.01, []Sample{{Cycles: 5}, {Cycles: 6}, {Cycles: 7}})
	err := s.Collect()
	if err == nil || !strings.Contains(err.Error(), "one time") {
		t.Fatalf("Collect with a skewed CPU = %v, want a read-time error", err)
	}
	if got := samplerState(s); got != before {
		t.Fatalf("failed Collect changed the sampler:\n--- before ---\n%s--- after ---\n%s", before, got)
	}
	// The priming read is held to the same contract.
	fresh := newScriptReader(2)
	fresh.skewAt = 1
	s2, err := NewSampler(fresh, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Collect(); err == nil || s2.Primed() {
		t.Fatalf("priming Collect with a skewed CPU = %v (primed %v), want an error", err, s2.Primed())
	}
}

func TestCollectAllOrNothing(t *testing.T) {
	// A read failure or a backwards counter at a later CPU must not leave
	// windows recorded or baselines moved for the CPUs before it.
	for _, tc := range []struct {
		name    string
		corrupt func(r *scriptReader)
	}{
		{"read", func(r *scriptReader) { r.failAt = 2 }},
		{"backwards", func(r *scriptReader) { r.totals[2].Instructions = 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, r := mustSampler(t, 3, 4)
			ds := []Sample{{Instructions: 10}, {Instructions: 20}, {Instructions: 30}}
			r.advance(0.01, ds)
			if err := s.Collect(); err != nil {
				t.Fatal(err)
			}
			before := samplerState(s)
			r.advance(0.01, ds)
			tc.corrupt(r)
			if err := s.Collect(); err == nil {
				t.Fatal("Collect succeeded")
			}
			if got := samplerState(s); got != before {
				t.Fatalf("failed Collect changed the sampler:\n--- before ---\n%s--- after ---\n%s", before, got)
			}
		})
	}
}

// fakeReader is a deterministic Reader that advances counters linearly
// once per Collect: a read of CPU 0 starts the next reading.
type fakeReader struct {
	n     int
	ticks int
	fail  bool
}

func (f *fakeReader) NumCPUs() int { return f.n }

func (f *fakeReader) ReadCounters(cpu int) (Sample, error) {
	if f.fail {
		return Sample{}, fmt.Errorf("injected failure")
	}
	if cpu == 0 {
		f.ticks++
	}
	k := uint64(f.ticks)
	return Sample{
		Time:         float64(f.ticks) * 0.01,
		Instructions: k * 1000 * uint64(cpu+1),
		Cycles:       k * 2000,
		L2Refs:       k * 10,
	}, nil
}

func TestSamplerCollect(t *testing.T) {
	r := &fakeReader{n: 2}
	s, err := NewSampler(r, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumCPUs() != 2 {
		t.Errorf("NumCPUs = %d", s.NumCPUs())
	}
	// First collect primes only.
	if err := s.Collect(); err != nil {
		t.Fatal(err)
	}
	if s.History(0).Len() != 0 {
		t.Error("first collect should record no delta")
	}
	if err := s.Collect(); err != nil {
		t.Fatal(err)
	}
	if s.History(0).Len() != 1 || s.History(1).Len() != 1 {
		t.Error("second collect should record one delta per CPU")
	}
	d := s.History(1).Last(0)
	if d.Instructions == 0 || d.Cycles == 0 {
		t.Errorf("delta = %+v", d)
	}
	// Aggregate across several windows.
	for i := 0; i < 5; i++ {
		if err := s.Collect(); err != nil {
			t.Fatal(err)
		}
	}
	agg := s.WindowAggregate(0, 3)
	if agg.Window <= 0 || agg.Instructions == 0 {
		t.Errorf("aggregate = %+v", agg)
	}
}

func TestSamplerPropagatesReadErrors(t *testing.T) {
	r := &fakeReader{n: 1, fail: true}
	s, err := NewSampler(r, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Collect(); err == nil {
		t.Error("want read error propagated")
	}
}

func TestNewSamplerValidation(t *testing.T) {
	if _, err := NewSampler(nil, 4); err == nil {
		t.Error("nil reader accepted")
	}
	if _, err := NewSampler(&fakeReader{n: 0}, 4); err == nil {
		t.Error("0-CPU reader accepted")
	}
	if _, err := NewSampler(&fakeReader{n: 1}, 0); err == nil {
		t.Error("zero history accepted")
	}
}

func TestDeltaIPCStaysFiniteProperty(t *testing.T) {
	err := quick.Check(func(instr, cyc uint32) bool {
		d := Delta{Instructions: uint64(instr), Cycles: uint64(cyc)}
		ipc := d.IPC()
		return !math.IsNaN(ipc) && !math.IsInf(ipc, 0)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}
