package fvsst

import (
	"math"

	"repro/internal/perfmodel"
	"repro/internal/power"
	"repro/internal/units"
)

// StepKey identifies one candidate Step-2 demotion in the order the
// greedy takes them: the processor's predicted loss at its new (one
// lower) table index, its pre-demotion index, and its processor index.
// Within a farm.DemandCurve Proc is member-local; the root division
// shifts it into the flat processor order before comparing.
type StepKey struct {
	Loss float64
	Idx  int
	Proc int
}

// Less is Step 2's order: smaller loss first; ties toward the higher
// pre-demotion index, so equal-loss reductions level the assignment
// instead of driving one processor to the floor; remaining ties toward
// the earlier processor. Keys of distinct processors never compare
// equal, so the order is total and every merge of the same heads pops
// the same sequence.
func (a StepKey) Less(b StepKey) bool {
	if a.Loss != b.Loss {
		return a.Loss < b.Loss
	}
	if a.Idx != b.Idx {
		return a.Idx > b.Idx
	}
	return a.Proc < b.Proc
}

// Heads is a set of independent demotion sequences the kernel merges: a
// processor's steps down its prediction-grid row, or a member cluster's
// exported demand curve.
type Heads interface {
	// Head returns source s's next demotion, ok=false once s is at its
	// floor.
	Head(s int) (key StepKey, ok bool)
	// Take applies source s's head demotion.
	Take(s int)
}

// ToFloor is the budget that runs the kernel until every source is at
// its floor: the demand curve's sweep.
const ToFloor = units.Power(-math.MaxFloat64)

// Kernel is the one implementation of Step 2: while the table power
// exceeds the budget, take the least-loss head (StepKey.Less) across all
// sources. It keeps a hand-rolled min-heap of per-source heads, so a
// demotion costs O(log N) rather than a rescan, and a running power
// total: the processor-order sum of the starting indices minus
// P[idx] − P[idx−1] per demotion. On a table whose powers are integer
// watts every partial sum is an exact float64, so the running total
// equals a processor-order re-sum bit for bit; on any table, two kernels
// that start from the same sum and take the same demotions agree bit for
// bit — which is what makes a relay tree schedule like a flat pass.
//
// The heap is built on the first demotion, so a pass whose starting
// power already fits does no heap work. A Kernel is reusable scratch and
// allocates only when a pass has more sources than any before it.
type Kernel struct {
	table *power.Table
	heads Heads
	n     int
	total units.Power
	built bool
	heap  []kernelHead
	rows  gridRows
}

type kernelHead struct {
	key StepKey
	src int
}

// Start begins a pass over n sources whose starting table power is total
// (StartPower over the starting indices, in processor order).
func (k *Kernel) Start(table *power.Table, total units.Power, heads Heads, n int) {
	k.table, k.total, k.heads, k.n = table, total, heads, n
	k.built = false
	k.heap = k.heap[:0]
}

// Total returns the running table power.
func (k *Kernel) Total() units.Power { return k.total }

// met reports whether the running table power fits the budget.
func (k *Kernel) met(budget units.Power) bool { return k.total <= budget }

// Next takes one demotion: when the running power exceeds the budget it
// applies the least-loss head to its source and returns its key. ok is
// false once the power fits or every source is at its floor.
func (k *Kernel) Next(budget units.Power) (key StepKey, ok bool) {
	if k.met(budget) {
		return StepKey{}, false
	}
	if !k.built {
		k.build()
	}
	if len(k.heap) == 0 {
		return StepKey{}, false
	}
	top := k.heap[0]
	k.total -= StepSaving(k.table, top.key.Idx)
	k.heads.Take(top.src)
	if next, more := k.heads.Head(top.src); more {
		k.heap[0].key = next
	} else {
		last := len(k.heap) - 1
		k.heap[0] = k.heap[last]
		k.heap = k.heap[:last]
	}
	if len(k.heap) > 0 {
		k.down(0)
	}
	return top.key, true
}

// Cut takes demotions until the running power fits the budget or every
// source is at its floor, and reports whether it fits.
func (k *Kernel) Cut(budget units.Power) bool {
	for _, ok := k.Next(budget); ok; _, ok = k.Next(budget) {
	}
	return k.met(budget)
}

// StepSaving is the table power one demotion from index idx recovers.
func StepSaving(table *power.Table, idx int) units.Power {
	return table.PowerAtIndex(idx) - table.PowerAtIndex(idx-1)
}

// StartPower is the processor-order table power of the given indices:
// every kernel pass starts from this sum.
func StartPower(table *power.Table, idx []int) units.Power {
	var sum units.Power
	for _, i := range idx {
		sum += table.PowerAtIndex(i)
	}
	return sum
}

func (k *Kernel) build() {
	k.built = true
	for s := 0; s < k.n; s++ {
		if key, ok := k.heads.Head(s); ok {
			k.heap = append(k.heap, kernelHead{key, s})
		}
	}
	for i := len(k.heap)/2 - 1; i >= 0; i-- {
		k.down(i)
	}
}

// down restores the heap below slot i by moving its head toward the
// leaves, shifting the lesser child up into the hole at each level.
func (k *Kernel) down(i int) {
	h := k.heap
	x := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].key.Less(h[c].key) {
			c = r
		}
		if !h[c].key.Less(x.key) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// gridRows is the kernel's source over prediction-grid rows: idx[i] is
// processor i's current table index, and an invalid row (an idle or
// unobserved processor) costs zero loss at every step, so it is lowered
// first.
type gridRows struct {
	grid *perfmodel.PredGrid
	idx  []int
}

func (r *gridRows) Head(s int) (StepKey, bool) {
	i := r.idx[s]
	if i == 0 {
		return StepKey{}, false
	}
	loss := 0.0
	if r.grid.Valid(s) {
		loss = r.grid.Loss(s, i-1)
	}
	return StepKey{Loss: loss, Idx: i, Proc: s}, true
}

func (r *gridRows) Take(s int) { r.idx[s]-- }

// StartRows begins a pass over prediction-grid rows from the indices in
// idx, which the pass lowers in place.
func (k *Kernel) StartRows(g *perfmodel.PredGrid, idx []int, table *power.Table) {
	k.rows = gridRows{grid: g, idx: idx}
	k.Start(table, StartPower(table, idx), &k.rows, len(idx))
}

// Fit is Step 2 over prediction-grid rows: it lowers idx in place until
// the table power fits the budget, appends each demotion to the caller's
// buffer (pass a len-0 slice to reuse its backing array) and returns it
// with met, which is false when the floor is reached with the budget
// still exceeded.
func (k *Kernel) Fit(g *perfmodel.PredGrid, idx []int, table *power.Table, budget units.Power, demotions []Demotion) ([]Demotion, bool) {
	k.StartRows(g, idx, table)
	for key, ok := k.Next(budget); ok; key, ok = k.Next(budget) {
		demotions = append(demotions, Demotion{
			CPU:           key.Proc,
			From:          table.FrequencyAtIndex(key.Idx),
			To:            table.FrequencyAtIndex(key.Idx - 1),
			PredictedLoss: key.Loss,
		})
	}
	return demotions, k.met(budget)
}
