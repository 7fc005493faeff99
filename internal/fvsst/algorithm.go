// Package fvsst implements the paper's contribution: the frequency and
// voltage scheduler for SMP servers (and, through internal/cluster, server
// clusters). Given per-processor performance-counter observations, a table
// of operating points and a global processor power budget, it runs the
// two-pass algorithm of Figure 3:
//
//	Step 1 — per processor, predict IPC at every available frequency and
//	         pick the lowest whose predicted performance loss versus f_max
//	         is below ε (performance saturation);
//	Step 2 — while the aggregate power exceeds the budget, lower the
//	         processor whose next step down costs the least predicted
//	         performance;
//	Step 3 — assign each processor the minimum voltage for its frequency.
//
// Step 2 exists once, as Kernel (steptwo.go): a min-heap of per-source
// heads in StepKey order plus a running power total. The scheduler, the
// cluster core, the demand-curve export, the relay root's division and
// the scenario allocator all run it; FitToBudget is a thin wrapper for
// callers holding frequencies. The running total is exact — equal to a
// processor-order re-sum bit for bit — whenever the table's powers are
// integer watts, as both shipped tables' are. Re-summing rescans survive
// only as independent witnesses: invariant.StepTwoReplay, optimal.Greedy
// (the DP's baseline over arbitrary loss functions), the planted
// scenario.SabotageStepTwoInvert bug, and the test-side witnesses in this
// package's FuzzStepTwo and farm's division tests.
//
// Rescheduling is triggered by the periodic timer T = n·t, by changes to
// the global power limit, and by idle transitions (§5).
package fvsst

import (
	"fmt"

	"repro/internal/perfmodel"
	"repro/internal/power"
	"repro/internal/units"
)

// EpsilonFrequency performs Step 1 for one processor: the lowest frequency
// in set whose predicted loss versus the set's maximum is under epsilon.
// When even the second-highest setting loses too much, it returns the
// maximum — the upward adjustment the paper notes Step 1 may make.
func EpsilonFrequency(dec perfmodel.Decomposition, set units.FrequencySet, epsilon float64) units.Frequency {
	fMax := set.Max()
	for _, f := range set {
		if dec.PerfLoss(fMax, f) < epsilon {
			return f
		}
	}
	return fMax
}

// IdealEpsilonFrequency is the continuous-frequency extension of §5/§9: it
// computes f_ideal in closed form and snaps it to the lowest set member at
// or above it, avoiding the per-frequency scan. For small sets the two
// approaches agree (tested); for hardware with many settings this is the
// cheaper path.
func IdealEpsilonFrequency(dec perfmodel.Decomposition, set units.FrequencySet, epsilon float64) (units.Frequency, error) {
	ideal, err := dec.IdealFrequency(set.Max(), epsilon)
	if err != nil {
		return 0, err
	}
	if f, ok := set.CeilOf(ideal); ok {
		return f, nil
	}
	return set.Max(), nil
}

// LossAt evaluates a processor's predicted loss at frequency f versus the
// set maximum; a helper shared by the budget-fitting pass and diagnostics.
func LossAt(dec perfmodel.Decomposition, set units.FrequencySet, f units.Frequency) float64 {
	return dec.PerfLoss(set.Max(), f)
}

// Demotion records one Step-2 reduction: the budget fit lowered CPU from
// From to To, a step predicted to cost PredictedLoss performance versus
// f_max. The sequence of demotions is the scheduler's justification for
// every gap between a processor's ε-constrained desire and its actual
// setting.
type Demotion struct {
	CPU           int
	From, To      units.Frequency
	PredictedLoss float64
}

// FitToBudget performs Step 2 over frequencies: given the ε-constrained
// assignment, it lowers frequencies — always the processor whose *next
// lower* setting has the smallest predicted loss versus f_max — until the
// aggregate table power fits the budget. It returns the adjusted
// assignment and whether the budget was met (false means every processor
// is already at the minimum setting and the budget is still exceeded; the
// caller must rely on the safety margin / external action).
//
// decs may contain a nil entry for an idle processor; idle processors are
// treated as having zero loss at any frequency, so they are lowered first.
// It fills a prediction grid and runs the Kernel, exactly as the
// Scheduler does.
func FitToBudget(decs []*perfmodel.Decomposition, assigned []units.Frequency, table *power.Table, budget units.Power) ([]units.Frequency, bool, error) {
	if len(decs) != len(assigned) {
		return nil, false, fmt.Errorf("fvsst: %d decompositions for %d assignments", len(decs), len(assigned))
	}
	var g perfmodel.PredGrid
	g.Reset(len(decs), table.Frequencies())
	idx := make([]int, len(assigned))
	for i, f := range assigned {
		if idx[i] = table.IndexOf(f); idx[i] < 0 {
			return nil, false, fmt.Errorf("fvsst: cpu %d frequency %v not in table", i, f)
		}
		if decs[i] != nil {
			g.Fill(i, *decs[i])
		}
	}
	var k Kernel
	_, met := k.Fit(&g, idx, table, budget, nil)
	out := make([]units.Frequency, len(idx))
	for i, fi := range idx {
		out[i] = table.FrequencyAtIndex(fi)
	}
	return out, met, nil
}

// EpsilonIndexGrid is Step 1 over a pre-evaluated prediction grid: the
// index of the lowest set frequency whose predicted loss is under epsilon.
// The loss at the set maximum is zero, so the scan always terminates; the
// result is identical to EpsilonFrequency over the same decomposition.
func EpsilonIndexGrid(g *perfmodel.PredGrid, cpu int, epsilon float64) int {
	n := g.NumFreqs()
	for i := 0; i < n; i++ {
		if g.Loss(cpu, i) < epsilon {
			return i
		}
	}
	return n - 1
}

// Voltages performs Step 3: the minimum table voltage for each assigned
// frequency.
func Voltages(assigned []units.Frequency, table *power.Table) ([]units.Voltage, error) {
	out := make([]units.Voltage, len(assigned))
	for i, f := range assigned {
		v, err := table.MinVoltage(f)
		if err != nil {
			return nil, fmt.Errorf("fvsst: voltage for cpu %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}

// TotalTablePower sums the table power of an assignment.
func TotalTablePower(assigned []units.Frequency, table *power.Table) (units.Power, error) {
	var sum units.Power
	for _, f := range assigned {
		p, err := table.PowerAt(f)
		if err != nil {
			return 0, err
		}
		sum += p
	}
	return sum, nil
}
