package farm

import (
	"fmt"

	"repro/internal/fvsst"
	"repro/internal/power"
	"repro/internal/units"
)

// DivideLeastLossExact splits a power budget across member demand curves
// by running the Step-2 kernel (fvsst.Kernel) over the curves' heads:
// every member starts at its desire (point 0), and the member whose next
// point carries the least step key — shifted into the flat processor
// order by the member's offset — advances one point, until the running
// power fits the budget. desired[i] holds member i's Step-1 table index
// per processor; the kernel's running total starts from their sum in
// flat order and subtracts each demotion's saving, exactly as one flat
// pass over the union would. Because each member's curve is itself its
// processors' least-loss sequence, the division reproduces the flat
// schedule bit for bit on any table, at O(log members) per demotion.
//
// pos[i] is member i's curve position and grant[i] its table power
// there: the sum of desired[i] minus the savings of its first pos[i]
// steps, the running total the member's own pass compares against the
// same budget. The reported point powers are never read. met is false
// when every curve is at its floor with the budget still exceeded. Curves
// must pass CheckCurve.
func DivideLeastLossExact(curves []DemandCurve, desired [][]int, table *power.Table, budget units.Power) (pos []int, grant []units.Power, met bool, err error) {
	if len(desired) != len(curves) {
		return nil, nil, false, fmt.Errorf("farm: %d desired sets for %d curves", len(desired), len(curves))
	}
	h := curveHeads{
		curves:  curves,
		table:   table,
		offsets: make([]int, len(curves)),
		pos:     make([]int, len(curves)),
		grant:   make([]units.Power, len(curves)),
	}
	var start []int
	for i, d := range desired {
		if err := CheckCurve(curves[i], d, table); err != nil {
			return nil, nil, false, fmt.Errorf("farm: member %d: %w", i, err)
		}
		h.offsets[i] = len(start)
		start = append(start, d...)
		h.grant[i] = fvsst.StartPower(table, d)
	}
	var k fvsst.Kernel
	k.Start(table, fvsst.StartPower(table, start), &h, len(curves))
	met = k.Cut(budget)
	return h.pos, h.grant, met, nil
}

// CheckCurve verifies that a member's curve replays onto its desired
// indices: every index lies in the table, and each step k ≥ 1 demotes a
// processor of the member from the index it holds, one step, never below
// the floor. A curve that fails cannot be divided; the relay root treats
// such a report as a missed poll.
func CheckCurve(c DemandCurve, desired []int, table *power.Table) error {
	if len(c.Points) == 0 {
		if len(desired) > 0 {
			return fmt.Errorf("%d processors but an empty curve", len(desired))
		}
		return nil
	}
	idx := append([]int(nil), desired...)
	for p, i := range idx {
		if i < 0 || i >= table.Len() {
			return fmt.Errorf("processor %d desired index %d outside table of %d points", p, i, table.Len())
		}
	}
	for k := 1; k < len(c.Points); k++ {
		s := c.Points[k].Step
		if s.Proc < 0 || s.Proc >= len(idx) || s.Idx < 1 || idx[s.Proc] != s.Idx {
			return fmt.Errorf("step %d key (proc %d idx %d) inconsistent with its desired indices", k, s.Proc, s.Idx)
		}
		idx[s.Proc]--
	}
	return nil
}

// curveHeads is the kernel's source over member demand curves: a
// member's head is its next point's step key in flat processor order,
// and taking it advances the member's position and running power.
type curveHeads struct {
	curves  []DemandCurve
	table   *power.Table
	offsets []int
	pos     []int
	grant   []units.Power
}

func (h *curveHeads) Head(m int) (fvsst.StepKey, bool) {
	if h.pos[m]+1 >= len(h.curves[m].Points) {
		return fvsst.StepKey{}, false
	}
	key := h.curves[m].Points[h.pos[m]+1].Step
	key.Proc += h.offsets[m]
	return key, true
}

func (h *curveHeads) Take(m int) {
	h.pos[m]++
	h.grant[m] -= fvsst.StepSaving(h.table, h.curves[m].Points[h.pos[m]].Step.Idx)
}
