package counters

import (
	"fmt"
)

// Sampler drives periodic counter collection across all processors of a
// Reader, maintaining the last sample per CPU and a bounded history of
// windows. It is the in-simulation equivalent of the fvsst daemon's
// collection loop, which reads the counters every dispatch period t (§6).
//
// The history is a run store. One Collect reads every CPU at one time,
// so the read times are kept once, in a ring shared by all CPUs, and a
// window's span is the difference of two consecutive read times. Per CPU
// the sampler keeps a ring of runs: stretches of consecutive windows with
// identical counts. A run records the sequence number of its first
// window, so its length is implicit, and a window equal to the CPU's
// newest run extends it without any write: an idle CPU costs no store per
// window.
type Sampler struct {
	reader Reader
	// last is each CPU's baseline: the reading its next window starts
	// from. cur is Collect's scratch for the reading being taken, which
	// becomes the baseline only once every CPU has been read and checked.
	last, cur []Sample
	primed    bool
	// capacity is how many windows the history holds.
	capacity int
	// seq counts the windows recorded since priming; the newest window
	// has sequence number seq-1 and ends at read seq (read 0 primes).
	seq uint64
	// times is the ring of read times, capacity+1 long so the oldest held
	// window still has its start; tpos indexes the newest read's time.
	times []float64
	tpos  int
	// runs holds every CPU's run ring: CPU c owns
	// runs[c·capacity : (c+1)·capacity], and heads[c] indexes its newest
	// run within that range.
	runs  []run
	heads []int
}

// counts is one window's counter deltas without its span.
type counts struct {
	instructions, cycles, halted, l2, l3, mem uint64
}

// diff returns cur − prev counter by counter, unchecked.
func diff(cur, prev Sample) counts {
	return counts{
		instructions: cur.Instructions - prev.Instructions,
		cycles:       cur.Cycles - prev.Cycles,
		halted:       cur.HaltedCycles - prev.HaltedCycles,
		l2:           cur.L2Refs - prev.L2Refs,
		l3:           cur.L3Refs - prev.L3Refs,
		mem:          cur.MemRefs - prev.MemRefs,
	}
}

// equal compares field by field; == on the struct would call the
// runtime's memory compare.
func (c *counts) equal(o *counts) bool {
	return c.instructions == o.instructions && c.cycles == o.cycles && c.halted == o.halted &&
		c.l2 == o.l2 && c.l3 == o.l3 && c.mem == o.mem
}

// delta turns the counts into a window of the given span.
func (c counts) delta(window float64) Delta {
	return Delta{Window: window, Instructions: c.instructions, Cycles: c.cycles, HaltedCycles: c.halted,
		L2Refs: c.l2, L3Refs: c.l3, MemRefs: c.mem}
}

// run is a stretch of consecutive windows with identical counts: from
// the window with sequence number from up to the next run's first window
// (or the newest window, for a CPU's newest run). 56 bytes, the size of a
// Delta.
type run struct {
	counts
	from uint64
}

// NewSampler prepares a sampler over the reader, keeping up to histLen
// windows per CPU.
func NewSampler(reader Reader, histLen int) (*Sampler, error) {
	if reader == nil {
		return nil, fmt.Errorf("counters: nil reader")
	}
	n := reader.NumCPUs()
	if n <= 0 {
		return nil, fmt.Errorf("counters: reader exposes %d CPUs", n)
	}
	if histLen <= 0 {
		return nil, fmt.Errorf("counters: history length %d must be positive", histLen)
	}
	return &Sampler{
		reader:   reader,
		last:     make([]Sample, n),
		cur:      make([]Sample, n),
		capacity: histLen,
		times:    make([]float64, histLen+1),
		runs:     make([]run, n*histLen),
		heads:    make([]int, n),
	}, nil
}

// NumCPUs returns the processor count being sampled.
func (s *Sampler) NumCPUs() int { return len(s.last) }

// Collect reads every CPU once and appends the window since the previous
// collection to each CPU's history. The first collection only primes the
// baselines and records nothing. Every CPU must report the same Time —
// one Collect is one reading of the whole machine — and Collect is all
// or nothing: on a read error, a time mismatch or a counter that ran
// backwards it returns the error and records no window, leaving every
// baseline as it was.
func (s *Sampler) Collect() error {
	var at float64
	for cpu := range s.cur {
		sample, err := s.reader.ReadCounters(cpu)
		if err != nil {
			return fmt.Errorf("counters: read cpu %d: %w", cpu, err)
		}
		if cpu == 0 {
			at = sample.Time
		} else if sample.Time != at {
			return fmt.Errorf("counters: cpu %d read at %v, cpu 0 at %v: one Collect reads every CPU at one time", cpu, sample.Time, at)
		}
		if s.primed {
			if _, err := sample.Sub(s.last[cpu]); err != nil {
				return fmt.Errorf("counters: delta cpu %d: %w", cpu, err)
			}
		}
		s.cur[cpu] = sample
	}
	if !s.primed {
		s.times[s.tpos] = at
		s.primed = true
	} else {
		s.pushTime(at)
		for cpu := range s.cur {
			s.record(cpu, diff(s.cur[cpu], s.last[cpu]))
		}
		s.seq++
	}
	s.last, s.cur = s.cur, s.last
	return nil
}

// pushTime appends the time of the next read to the time ring.
func (s *Sampler) pushTime(t float64) {
	if s.tpos++; s.tpos == len(s.times) {
		s.tpos = 0
	}
	s.times[s.tpos] = t
}

// record files counts c as processor cpu's windows from sequence number
// s.seq on: it extends the CPU's newest run when the counts are equal,
// and starts a new run otherwise, overwriting the oldest when the ring
// is full. Dropping the oldest run is safe: the other capacity runs each
// hold at least one window, so they cover every window the history
// holds.
func (s *Sampler) record(cpu int, c counts) {
	base := cpu * s.capacity
	h := s.heads[cpu]
	if s.seq > 0 && s.runs[base+h].counts.equal(&c) {
		return
	}
	if h++; h == s.capacity {
		h = 0
	}
	s.runs[base+h] = run{counts: c, from: s.seq}
	s.heads[cpu] = h
}

// Reader returns the reader the sampler collects from.
func (s *Sampler) Reader() Reader { return s.reader }

// Primed reports whether a first Collect has set the baselines.
func (s *Sampler) Primed() bool { return s.primed }

// Replay records on a primed sampler what len(ends) further Collect
// calls would, without reading the counters, when every CPU's counters
// advance by exactly ds[cpu] between consecutive reads and the j-th read
// happens at time ends[j]: each window carries its CPU's counts, and its
// Window is ends[j] minus the previous read's time — the subtraction Sub
// performs. Each CPU's windows extend its newest run or start one new
// run; only the newest read times the history can use are written.
func (s *Sampler) Replay(ds []Sample, ends []float64) {
	k := len(ends)
	if k == 0 {
		return
	}
	first := max(0, k-len(s.times))
	s.tpos = (s.tpos + first) % len(s.times)
	for _, t := range ends[first:] {
		s.pushTime(t)
	}
	for cpu, d := range ds {
		s.record(cpu, diff(d, Sample{}))
		s.last[cpu].AddN(d, uint64(k))
		s.last[cpu].Time = ends[k-1]
	}
	s.seq += uint64(k)
}

// Last returns processor cpu's baseline: the reading its next window
// starts from.
func (s *Sampler) Last(cpu int) Sample { return s.last[cpu] }

// Len returns how many windows each CPU's history holds.
func (s *Sampler) Len() int { return int(min(s.seq, uint64(s.capacity))) }

// History returns processor cpu's view of the window history.
func (s *Sampler) History(cpu int) History { return History{s: s, cpu: cpu} }

// WindowAggregate sums the most recent n windows of processor cpu — the
// aggregation the scheduler performs over the n dispatch periods that make
// up one scheduling period T = n·t. Fewer than n available windows
// aggregate whatever exists.
func (s *Sampler) WindowAggregate(cpu, n int) Delta {
	agg, _ := s.StaleAggregate(cpu, 0, n)
	return agg
}

// StaleAggregate is the observation of processor cpu a consumer sees
// when its newest stale seconds of windows are still in flight: it skips
// the newest windows until their spans add up to at least stale, then
// sums the next n windows (fewer if the history runs out), newest first.
// ok is false when no window is left after the skip.
func (s *Sampler) StaleAggregate(cpu int, stale float64, n int) (agg Delta, ok bool) {
	held := s.Len()
	i, t := 0, s.tpos
	var span float64
	for ; i < held && span < stale; i++ {
		span += s.span(&t)
	}
	if i >= held {
		return Delta{}, false
	}
	return s.sum(cpu, i, min(held, i+n)), true
}

// sum adds processor cpu's windows i through end-1 (0 = newest), newest
// first, walking the history once: the spans window by window in that
// order, as Delta.Add would, and each run's counts once, times the
// number of its windows in the range (exact in integer arithmetic).
func (s *Sampler) sum(cpu, i, end int) (agg Delta) {
	t := s.tpos - i
	if t < 0 {
		t += len(s.times)
	}
	for j := i; j < end; j++ {
		agg.Window += s.span(&t)
	}
	// The windows have sequence numbers [lo, hi); walk the CPU's runs
	// from the newest until they are covered.
	lo, hi := s.seq-uint64(end), s.seq-uint64(i)
	base, h := cpu*s.capacity, s.heads[cpu]
	for top := s.seq; top > lo; {
		r := &s.runs[base+h]
		if a, b := max(r.from, lo), min(top, hi); b > a {
			m := b - a
			agg.Instructions += r.instructions * m
			agg.Cycles += r.cycles * m
			agg.HaltedCycles += r.halted * m
			agg.L2Refs += r.l2 * m
			agg.L3Refs += r.l3 * m
			agg.MemRefs += r.mem * m
		}
		top = r.from
		if h--; h < 0 {
			h = s.capacity - 1
		}
	}
	return agg
}

// span returns the span of the window ending at read-time index *t and
// steps *t back to that window's start.
func (s *Sampler) span(t *int) float64 {
	end := s.times[*t]
	if *t--; *t < 0 {
		*t = len(s.times) - 1
	}
	return end - s.times[*t]
}

// History is one processor's view of its sampler's windows. It reads
// the sampler's store directly, so it always shows the current history.
type History struct {
	s   *Sampler
	cpu int
}

// Len returns how many windows are stored.
func (h History) Len() int { return h.s.Len() }

// Last returns the i-th most recent window (0 = newest). It panics when i
// is out of range — callers must check Len.
func (h History) Last(i int) Delta {
	if i < 0 || i >= h.Len() {
		panic(fmt.Sprintf("counters: history index %d out of range [0,%d)", i, h.Len()))
	}
	return h.s.sum(h.cpu, i, i+1)
}

// SumLast aggregates the min(n, Len) most recent windows into one.
func (h History) SumLast(n int) Delta { return h.s.WindowAggregate(h.cpu, n) }
