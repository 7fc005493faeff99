package counters

import (
	"fmt"
)

// Sampler drives periodic counter collection across all processors of a
// Reader, maintaining the last sample per CPU and a bounded history of
// deltas. It is the in-simulation equivalent of the fvsst daemon's
// collection loop, which reads the counters every dispatch period t (§6).
type Sampler struct {
	reader  Reader
	last    []Sample
	started []bool
	history []*History
}

// NewSampler prepares a sampler over the reader, keeping up to histLen
// deltas per CPU.
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
	s := &Sampler{
		reader:  reader,
		last:    make([]Sample, n),
		started: make([]bool, n),
		history: make([]*History, n),
	}
	for i := range s.history {
		s.history[i] = NewHistory(histLen)
	}
	return s, nil
}

// NumCPUs returns the processor count being sampled.
func (s *Sampler) NumCPUs() int { return len(s.last) }

// Collect reads every CPU once and appends the delta since the previous
// collection to each CPU's history. The first collection only primes the
// baselines and records nothing.
func (s *Sampler) Collect() error {
	for cpu := range s.last {
		sample, err := s.reader.ReadCounters(cpu)
		if err != nil {
			return fmt.Errorf("counters: read cpu %d: %w", cpu, err)
		}
		if s.started[cpu] {
			delta, err := sample.Sub(s.last[cpu])
			if err != nil {
				return fmt.Errorf("counters: delta cpu %d: %w", cpu, err)
			}
			s.history[cpu].Push(delta)
		}
		s.last[cpu] = sample
		s.started[cpu] = true
	}
	return nil
}

// Reader returns the reader the sampler collects from.
func (s *Sampler) Reader() Reader { return s.reader }

// Replay records on primed processor cpu what len(ends) further Collect
// calls would, without reading the counters, when the processor's
// counters advance by exactly d between consecutive reads and the j-th
// read happens at time ends[j]: each window carries d's counts, and its
// Window is ends[j] minus the previous read's time — the subtraction Sub
// performs. Only the newest windows the history can hold are written.
func (s *Sampler) Replay(cpu int, d Sample, ends []float64) {
	k := len(ends)
	if k == 0 {
		return
	}
	last := &s.last[cpu]
	first := max(0, k-len(s.history[cpu].buf))
	prev := last.Time
	if first > 0 {
		prev = ends[first-1]
	}
	w := Delta{Instructions: d.Instructions, Cycles: d.Cycles, HaltedCycles: d.HaltedCycles,
		L2Refs: d.L2Refs, L3Refs: d.L3Refs, MemRefs: d.MemRefs}
	for _, t := range ends[first:] {
		w.Window = t - prev
		s.history[cpu].Push(w)
		prev = t
	}
	last.AddN(d, uint64(k))
	last.Time = ends[k-1]
}

// Last returns processor cpu's baseline: the reading its next window
// starts from.
func (s *Sampler) Last(cpu int) Sample { return s.last[cpu] }

// History returns the delta history of processor cpu.
func (s *Sampler) History(cpu int) *History { return s.history[cpu] }

// WindowAggregate sums the most recent n deltas of processor cpu — the
// aggregation the scheduler performs over the n dispatch periods that make
// up one scheduling period T = n·t. Fewer than n available deltas
// aggregate whatever exists.
func (s *Sampler) WindowAggregate(cpu, n int) Delta {
	return s.history[cpu].SumLast(n)
}

// History is a fixed-capacity ring of the most recent deltas of one
// processor.
type History struct {
	buf  []Delta
	next int
	size int
}

// NewHistory creates a ring holding up to capacity deltas.
func NewHistory(capacity int) *History {
	if capacity <= 0 {
		panic(fmt.Sprintf("counters: history capacity %d must be positive", capacity))
	}
	return &History{buf: make([]Delta, capacity)}
}

// Push appends a delta, evicting the oldest when full.
func (h *History) Push(d Delta) {
	h.buf[h.next] = d
	if h.next++; h.next == len(h.buf) {
		h.next = 0
	}
	if h.size < len(h.buf) {
		h.size++
	}
}

// Len returns how many deltas are stored.
func (h *History) Len() int { return h.size }

// Last returns the i-th most recent delta (0 = newest). It panics when i is
// out of range — callers must check Len.
func (h *History) Last(i int) Delta {
	if i < 0 || i >= h.size {
		panic(fmt.Sprintf("counters: history index %d out of range [0,%d)", i, h.size))
	}
	pos := h.next - 1 - i
	if pos < 0 {
		pos += len(h.buf)
	}
	return h.buf[pos]
}

// SumLast aggregates the min(n, Len) most recent deltas into one.
func (h *History) SumLast(n int) Delta {
	if n > h.size {
		n = h.size
	}
	var sum Delta
	for i := 0; i < n; i++ {
		sum = sum.Add(h.Last(i))
	}
	return sum
}
