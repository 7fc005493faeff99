package cluster

import (
	"testing"

	"repro/internal/farm"
	"repro/internal/units"
)

// TestDemandCurveShape: after some run time the cluster exports a valid
// curve whose floor is every processor at the table minimum.
func TestDemandCurveShape(t *testing.T) {
	c := newTwoNodeCluster(t, units.Watts(1200))
	if err := c.Run(0.5); err != nil {
		t.Fatal(err)
	}
	curve, err := c.DemandCurve()
	if err != nil {
		t.Fatal(err)
	}
	if err := curve.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(curve.Points) < 2 {
		t.Fatalf("curve has %d points; busy CPUs should leave demotion room", len(curve.Points))
	}
	if got, want := curve.Floor(), c.FloorPower(); got != want {
		t.Errorf("curve floor %v, want the all-minimum power %v", got, want)
	}
	if curve.Desired() <= curve.Floor() {
		t.Errorf("desire %v not above floor %v", curve.Desired(), curve.Floor())
	}
}

// TestDemandCurveMatchesSchedule is the faithfulness property that makes
// the farm layer's predictions honest: Step 2 is a prefix of the demand
// curve. Handed any point's power as its budget, a real pass over the
// same inputs lands on exactly that point — the same table power bit for
// bit, after exactly k demotions, each the curve's step key — because
// both run the one Step-2 kernel from the same start.
func TestDemandCurveMatchesSchedule(t *testing.T) {
	c := newTwoNodeCluster(t, units.Watts(1200))
	if err := c.Run(0.5); err != nil {
		t.Fatal(err)
	}
	inputs := c.buildInputs()
	curve, err := c.core.DemandCurve(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for k, pt := range curve.Points {
		res, err := c.core.Schedule(inputs, pt.Power)
		if err != nil {
			t.Fatal(err)
		}
		if !res.BudgetMet || res.TablePower != pt.Power {
			t.Fatalf("point %d: pass table power %v (met %v), want exactly %v",
				k, res.TablePower, res.BudgetMet, pt.Power)
		}
		if len(res.Demotions) != k {
			t.Fatalf("point %d: pass took %d demotions, want %d", k, len(res.Demotions), k)
		}
		for j, d := range res.Demotions {
			step := curve.Points[j+1].Step
			if d.CPU != step.Proc || d.From != c.cfg.Table.FrequencyAtIndex(step.Idx) || d.PredictedLoss != step.Loss {
				t.Fatalf("point %d demotion %d: cpu %d from %v loss %v, curve step %+v",
					k, j, d.CPU, d.From, d.PredictedLoss, step)
			}
		}
	}
}

// TestCoordinatorBudgetSourceHolder plugs a farm lease Holder in as the
// coordinator's budget source: grants and expiries both become
// budget-change passes, and the budget tracks lease → floor.
func TestCoordinatorBudgetSourceHolder(t *testing.T) {
	c := newTwoNodeCluster(t, units.Watts(900))
	h, err := farm.NewHolder("pair", units.Watts(200), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.SetBudgetSource(h)
	// No lease yet: the first step drops the budget to the holder's floor.
	if err := c.Run(0.2); err != nil {
		t.Fatal(err)
	}
	if got := c.Budget(); got.W() != 200 {
		t.Fatalf("budget with no lease = %v, want the 200W floor", got)
	}
	h.Grant(farm.Lease{Member: "pair", Budget: units.Watts(600), Granted: c.Now(), Expires: c.Now() + 0.3})
	if err := c.Run(c.Now() + 0.1); err != nil {
		t.Fatal(err)
	}
	if got := c.Budget(); got.W() != 600 {
		t.Fatalf("budget mid-lease = %v, want the 600W grant", got)
	}
	if err := c.Run(c.Now() + 0.4); err != nil {
		t.Fatal(err)
	}
	if got := c.Budget(); got.W() != 200 {
		t.Fatalf("budget past expiry = %v, want the floor again", got)
	}
	var changes int
	for _, d := range c.Decisions() {
		if d.Trigger == "budget-change" {
			changes++
		}
	}
	if changes < 3 {
		t.Errorf("%d budget-change passes, want ≥ 3 (floor, grant, expiry)", changes)
	}
}

// TestUniformLoss pins the baseline helper: full speed predicts no loss,
// the table minimum predicts the most, indexes out of range error.
func TestUniformLoss(t *testing.T) {
	c := newTwoNodeCluster(t, units.Watts(1200))
	if err := c.Run(0.5); err != nil {
		t.Fatal(err)
	}
	top := c.cfg.Table.Len() - 1
	atTop, err := c.UniformLoss(top)
	if err != nil {
		t.Fatal(err)
	}
	atMin, err := c.UniformLoss(0)
	if err != nil {
		t.Fatal(err)
	}
	if atTop > 1e-9 {
		t.Errorf("loss at full speed = %v, want ~0", atTop)
	}
	if atMin <= atTop {
		t.Errorf("loss at minimum (%v) not above loss at maximum (%v)", atMin, atTop)
	}
	if _, err := c.UniformLoss(-1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := c.UniformLoss(c.cfg.Table.Len()); err == nil {
		t.Error("out-of-range index accepted")
	}
}
