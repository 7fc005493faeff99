package scenario

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fvsst"
	"repro/internal/invariant"
	"repro/internal/optimal"
	"repro/internal/perfmodel"
	"repro/internal/power"
	"repro/internal/units"
)

// Step-2 allocator names for PolicyKnobs.Allocator.
const (
	// AllocGreedy is the paper's Step 2: demote the least next-step loss.
	AllocGreedy = "greedy"
	// AllocUniform demotes the highest-frequency CPU first, loss-blind —
	// the naive budget fit the paper's greedy is measured against.
	AllocUniform = "uniform"
	// AllocOptimal assigns the exact minimum-loss feasible assignment
	// from internal/optimal every pass — the paper's counterfactual upper
	// bound, not a deployable policy (it assumes a solved pass).
	AllocOptimal = "optimal"
)

// PolicyKnobs re-runs a scenario under a perturbed scheduling policy:
// the counterfactual arm of the policy search. The zero value changes
// nothing; each knob replaces one decision ingredient while the
// workload, faults, budgets and seeds stay identical.
//
// Epsilon (>0) replaces the spec's Step-1 loss tolerance. Debounce
// semantics: a CPU's Step-1 choice must repeat for DebouncePasses
// consecutive passes before the held desire moves (first observation
// adopts immediately; Step 2 demotions are never debounced — budget
// safety cannot lag). Allocator swaps Step 2's budget fit.
type PolicyKnobs struct {
	Epsilon        float64 `json:"epsilon,omitempty"`
	DebouncePasses int     `json:"debounce_passes,omitempty"`
	Allocator      string  `json:"allocator,omitempty"`
}

func (k *PolicyKnobs) validate() error {
	if k == nil {
		return nil
	}
	if k.Epsilon < 0 || k.Epsilon >= 1 {
		return fmt.Errorf("scenario: policy epsilon %v outside [0,1)", k.Epsilon)
	}
	if k.DebouncePasses < 0 {
		return fmt.Errorf("scenario: policy debounce %d must be non-negative", k.DebouncePasses)
	}
	switch k.Allocator {
	case "", AllocGreedy, AllocUniform, AllocOptimal:
	default:
		return fmt.Errorf("scenario: unknown allocator %q", k.Allocator)
	}
	return nil
}

// rewrites reports whether the knobs need a post-pass rewrite (an ε-only
// override flows through the scheduler config instead, keeping the full
// checker suite valid).
func (k *PolicyKnobs) rewrites() bool {
	return k != nil && (k.DebouncePasses >= 2 || (k.Allocator != "" && k.Allocator != AllocGreedy))
}

// policyState carries the rewrite machinery across rounds: the debounce
// streaks are keyed by stable proc identity, not pass position, because
// partitions shrink the input vector.
type policyState struct {
	knobs PolicyKnobs
	cfg   fvsst.Config
	pred  perfmodel.Predictor
	grid  perfmodel.PredGrid
	held  map[cluster.ProcRef]int
	last  map[cluster.ProcRef]int
	run   map[cluster.ProcRef]int
}

func newPolicyState(knobs PolicyKnobs, cfg fvsst.Config) (*policyState, error) {
	pred, err := perfmodel.New(cfg.Hier)
	if err != nil {
		return nil, err
	}
	return &policyState{
		knobs: knobs,
		cfg:   cfg,
		pred:  pred,
		held:  map[cluster.ProcRef]int{},
		last:  map[cluster.ProcRef]int{},
		run:   map[cluster.ProcRef]int{},
	}, nil
}

// rewrite re-decides the pass under the policy knobs, the same post-pass
// rewrite shape as the sabotage hook: Step-1 desires pass through the
// debounce filter, the chosen allocator replaces Step 2, Step 3 re-reads
// the voltage table. The demotion log is dropped — replacement
// allocators have no least-loss demotion sequence to log.
func (st *policyState) rewrite(inputs []cluster.ProcInput, pass *cluster.PassResult, budget units.Power) error {
	cfg := st.cfg
	st.grid.Reset(len(inputs), cfg.Table.Frequencies())
	for i, in := range inputs {
		if (cfg.UseIdleSignal && in.Idle) || in.Obs == nil {
			continue
		}
		d, err := st.pred.Decompose(*in.Obs)
		if err != nil {
			return err
		}
		st.grid.Fill(i, d)
	}
	desired := make([]int, len(inputs))
	for i, a := range pass.Assignments {
		desired[i] = cfg.Table.IndexOf(a.Desired)
	}
	if k := st.knobs.DebouncePasses; k >= 2 {
		for i, in := range inputs {
			ref := in.Proc
			cand := desired[i]
			held, seen := st.held[ref]
			switch {
			case !seen:
				held = cand // first observation adopts immediately
			case cand == held:
				st.run[ref] = 0
			default:
				if cand == st.last[ref] {
					st.run[ref]++
				} else {
					st.run[ref] = 1
				}
				if st.run[ref] >= k {
					held = cand
					st.run[ref] = 0
				}
			}
			st.last[ref] = cand
			st.held[ref] = held
			desired[i] = held
		}
	}
	idx, met, err := st.allocate(desired, budget)
	if err != nil {
		return err
	}
	pass.Demotions = nil
	pass.BudgetMet = met
	var total units.Power
	for i := range pass.Assignments {
		pass.Assignments[i].Desired = cfg.Table.FrequencyAtIndex(desired[i])
		pass.Assignments[i].Actual = cfg.Table.FrequencyAtIndex(idx[i])
		pass.Assignments[i].Voltage = cfg.Table.VoltageAtIndex(idx[i])
		if st.grid.Valid(i) {
			pass.Assignments[i].PredictedLoss = st.grid.Loss(i, idx[i])
		} else {
			pass.Assignments[i].PredictedLoss = 0
		}
		total += cfg.Table.PowerAtIndex(idx[i])
	}
	pass.TablePower = total
	return nil
}

// allocate runs the knob-selected Step-2 replacement from the (possibly
// debounced) desired indices.
func (st *policyState) allocate(desired []int, budget units.Power) ([]int, bool, error) {
	return Allocate(st.knobs.Allocator, &st.grid, desired, st.cfg.Table, budget)
}

// Allocate runs one named Step-2 budget fit over a filled prediction
// grid: actual indices capped by the desired ones, plus whether the
// result fits the budget. It is shared by the in-run policy rewrite and
// the trace replay harness so both arms of a counterfactual use the
// byte-identical allocator.
func Allocate(allocator string, grid *perfmodel.PredGrid, desired []int, table *power.Table, budget units.Power) ([]int, bool, error) {
	lossAt := func(cpu, fi int) float64 {
		if !grid.Valid(cpu) {
			return 0
		}
		return grid.Loss(cpu, fi)
	}
	switch allocator {
	case AllocOptimal:
		sol, err := optimal.Solve(optimal.Problem{
			Table:  table,
			Budget: budget,
			Upper:  desired,
			Loss:   lossAt,
		})
		if err != nil {
			return nil, false, err
		}
		return sol.Idx, sol.Feasible, nil
	case AllocUniform:
		idx := append([]int(nil), desired...)
		for {
			var sum units.Power
			for _, k := range idx {
				sum += table.PowerAtIndex(k)
			}
			if sum <= budget {
				return idx, true, nil
			}
			best := -1
			for i, k := range idx {
				if k == 0 {
					continue
				}
				if best < 0 || k > idx[best] {
					best = i
				}
			}
			if best < 0 {
				return idx, false, nil
			}
			idx[best]--
		}
	default: // greedy under debounced desires
		idx := append([]int(nil), desired...)
		var k fvsst.Kernel
		_, met := k.Fit(grid, idx, table, budget, nil)
		return idx, met, nil
	}
}

// policyCheckers is the reduced suite for rewritten passes: the Step-1/
// Step-2 shape checkers assume the paper's policy, but grid sanity, the
// voltage law and budget conservation must hold under any knob setting.
func policyCheckers() *invariant.Suite {
	return invariant.NewSuite(
		invariant.GridSanity{},
		invariant.VoltageMatch{},
		invariant.BudgetConservation{},
	)
}

// OptGapStats aggregates per-pass greedy-vs-exact-optimal measurements
// across a run (Options.MeasureGap). "Greedy" is the loss of whatever
// assignment actually ran — under default knobs that is the paper's
// Step 2. Energy* fields describe the unconstrained energy-optimal
// baseline at the same snapshots.
type OptGapStats struct {
	// Passes is the number of feasible, solved passes measured; Skipped
	// counts infeasible, empty, or solver-limit passes.
	Passes  int `json:"passes"`
	Skipped int `json:"skipped,omitempty"`
	// NonOptimal counts passes where the actual loss exceeded the exact
	// optimum beyond float tolerance.
	NonOptimal int `json:"non_optimal"`
	// WorstGap is the largest per-pass (actual − optimal) total loss.
	WorstGap float64 `json:"worst_gap"`
	// GreedyLoss / OptimalLoss are summed per-pass total losses.
	GreedyLoss  float64 `json:"greedy_loss"`
	OptimalLoss float64 `json:"optimal_loss"`
	// EnergyLoss sums the energy-optimal baseline's predicted loss;
	// EnergyFeasible counts passes where that baseline happened to fit
	// the budget it ignores.
	EnergyLoss     float64 `json:"energy_loss"`
	EnergyFeasible int     `json:"energy_feasible"`
}

// measure folds one pass into the stats.
func (s *OptGapStats) measure(p *invariant.Pass) {
	greedy, opt, energy, ok := p.OptGap()
	if !ok {
		s.Skipped++
		return
	}
	s.Passes++
	gap := greedy - opt
	if gap > 1e-12 {
		s.NonOptimal++
	}
	if gap > s.WorstGap {
		s.WorstGap = gap
	}
	s.GreedyLoss += greedy
	s.OptimalLoss += opt
	s.EnergyLoss += energy.Loss
	if energy.Feasible {
		s.EnergyFeasible++
	}
}

// Merge folds another run's stats into s (soak aggregation).
func (s *OptGapStats) Merge(o OptGapStats) {
	s.Passes += o.Passes
	s.Skipped += o.Skipped
	s.NonOptimal += o.NonOptimal
	if o.WorstGap > s.WorstGap {
		s.WorstGap = o.WorstGap
	}
	s.GreedyLoss += o.GreedyLoss
	s.OptimalLoss += o.OptimalLoss
	s.EnergyLoss += o.EnergyLoss
	s.EnergyFeasible += o.EnergyFeasible
}
