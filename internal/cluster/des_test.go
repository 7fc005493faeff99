package cluster

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/counters"
	"repro/internal/machine"
	"repro/internal/power"
	"repro/internal/units"
	"repro/internal/workload"
)

// clusterFingerprint renders everything RunDES must preserve: every
// decision with its assignments, every node machine's clock, energy and
// counters, and the completion log — all through %v so single-bit float
// drift shows.
func clusterFingerprint(c *Coordinator) string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%v budget=%v pending=%d\n", c.Now(), c.Budget(), len(c.pending))
	for _, d := range c.Decisions() {
		fmt.Fprintf(&b, "pass %v %s %v %v %v\n", d.At, d.Trigger, d.Budget, d.TablePower, d.BudgetMet)
		for _, a := range d.Assignments {
			fmt.Fprintf(&b, "  %d/%d %v %v %v %v %v\n",
				a.Proc.Node, a.Proc.CPU, a.Desired, a.Actual, a.Voltage, a.PredictedLoss, a.Idle)
		}
	}
	for _, n := range c.nodes {
		fmt.Fprintf(&b, "node %s t=%v e=%v ce=%v\n", n.Name, n.M.Now(), n.M.Energy(), n.M.CPUEnergy())
		for i := 0; i < n.M.NumCPUs(); i++ {
			s, err := n.M.ReadCounters(i)
			if err != nil {
				panic(err)
			}
			fmt.Fprintf(&b, "  cpu%d %+v f=%v\n", i, s, n.M.EffectiveFrequency(i))
		}
	}
	for _, jc := range c.Completions() {
		fmt.Fprintf(&b, "done %s/%d %s %v\n", jc.Node, jc.CPU, jc.Program, jc.At)
	}
	return b.String()
}

// diffCluster builds two coordinators via mk, runs one with the quantum
// engine and one on the DES path, and requires byte-identical state at
// every checkpoint.
func diffCluster(t *testing.T, mk func() *Coordinator, checkpoints []float64) {
	t.Helper()
	ref, des := mk(), mk()
	for _, ck := range checkpoints {
		if err := ref.Run(ck); err != nil {
			t.Fatalf("Run(%v): %v", ck, err)
		}
		if err := des.RunDES(ck); err != nil {
			t.Fatalf("RunDES(%v): %v", ck, err)
		}
		want, got := clusterFingerprint(ref), clusterFingerprint(des)
		if got != want {
			t.Fatalf("diverged at t=%v:\n--- Run ---\n%s--- RunDES ---\n%s", ck, want, got)
		}
	}
}

func TestRunDESMatchesRunTiered(t *testing.T) {
	mk := func() *Coordinator {
		nodes, err := Tiered(quietMachineConfig(), 0.02)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(clusterConfig(), units.Watts(900), nodes...)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	diffCluster(t, mk, []float64{0.3, 1.0, 2.5, 6.0})
}

func TestRunDESMatchesRunBudgetSchedule(t *testing.T) {
	mk := func() *Coordinator {
		c := newTwoNodeCluster(t, units.Watts(900))
		sched, err := power.NewBudgetSchedule(units.Watts(900),
			power.BudgetEvent{At: 0.8, Budget: units.Watts(500), Label: "fail"},
			power.BudgetEvent{At: 2.2, Budget: units.Watts(900), Label: "restore"},
		)
		if err != nil {
			t.Fatal(err)
		}
		c.Budgets = sched
		return c
	}
	diffCluster(t, mk, []float64{0.5, 1.0, 3.0, 5.0})
}

func TestRunDESMatchesRunWithArrivals(t *testing.T) {
	// Idle gaps between arrival bursts are where skipping actually pays;
	// the machines must absorb the bursts identically.
	mk := func() *Coordinator {
		c := newTwoNodeCluster(t, units.Watts(700))
		for ni, n := range c.Nodes() {
			var sched workload.Schedule
			for k := 0; k < 3; k++ {
				sched = append(sched, workload.Arrival{
					At:      0.9 + float64(k)*1.7 + float64(ni)*0.3,
					CPU:     (k + ni) % n.M.NumCPUs(),
					Program: workload.Gzip(0.002),
				})
			}
			if err := n.M.Submit(sched); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	diffCluster(t, mk, []float64{0.5, 2.0, 4.0, 8.0})
}

func TestRunDESHeterogeneousQuanta(t *testing.T) {
	// One node runs a 5 ms machine under a 10 ms coordinator cadence: New
	// accepts it, both engines advance it to each cadence edge, and the
	// differential still holds byte for byte.
	mk := func() *Coordinator {
		mkNode := func(name string, quantum float64, seed int64) *Node {
			mcfg := quietMachineConfig()
			mcfg.Quantum = quantum
			mcfg.Seed = seed
			m, err := machine.New(mcfg)
			if err != nil {
				t.Fatal(err)
			}
			mix, err := workload.NewMix(cpuProg(2e9))
			if err != nil {
				t.Fatal(err)
			}
			if err := m.SetMix(0, mix); err != nil {
				t.Fatal(err)
			}
			return &Node{Name: name, M: m, RTT: 0.005}
		}
		c, err := New(clusterConfig(), units.Watts(700),
			mkNode("coarse", 0.010, 1), mkNode("fine", 0.005, 2))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	diffCluster(t, mk, []float64{0.5, 2.0, 5.0})
}

func TestStaleWindowsMatchesQuantumRule(t *testing.T) {
	// With every window exactly one quantum long, seconds-based staleness
	// skips the old ⌈RTT/quantum⌉ newest windows. The observed CPU is busy,
	// so every window retires instructions and each skip count gives its
	// own aggregate of the remaining windows.
	c := newTwoNodeCluster(t, units.Watts(900))
	if err := c.Run(1.0); err != nil {
		t.Fatal(err)
	}
	s := c.nodes[0].sampler
	hist := s.History(0)
	held := hist.Len()
	q := c.loop.Quantum()
	for _, tc := range []struct {
		rtt  float64
		want int
	}{{0, 0}, {0.005, 1}, {0.010, 1}, {0.015, 2}, {0.045, 5}} {
		var want counters.Delta
		for i := tc.want; i < held; i++ {
			want = want.Add(hist.Last(i))
		}
		got, ok := s.StaleAggregate(0, tc.rtt, held)
		if !ok || fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
			t.Errorf("StaleAggregate(rtt=%v) = %+v %v, want the %d windows after skipping %d (q=%v): %+v",
				tc.rtt, got, ok, held-tc.want, tc.want, q, want)
		}
	}
}
