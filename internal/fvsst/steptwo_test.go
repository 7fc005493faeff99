package fvsst

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/power"
	"repro/internal/units"
)

// rescanStepTwo is the independent witness for the kernel: Step 2 as the
// paper states it, one demotion at a time, re-summing every processor's
// table power in processor order and rescanning every processor for the
// least-loss step (ties toward the higher current index, then the earlier
// processor).
func rescanStepTwo(g *perfmodel.PredGrid, idx []int, table *power.Table, budget units.Power) ([]Demotion, bool) {
	var demotions []Demotion
	for {
		var sum units.Power
		for _, i := range idx {
			sum += table.PowerAtIndex(i)
		}
		if sum <= budget {
			return demotions, true
		}
		best := -1
		bestLoss := math.Inf(1)
		for p, i := range idx {
			if i == 0 {
				continue
			}
			loss := 0.0
			if g.Valid(p) {
				loss = g.Loss(p, i-1)
			}
			if loss < bestLoss || (loss == bestLoss && best >= 0 && i > idx[best]) {
				best, bestLoss = p, loss
			}
		}
		if best < 0 {
			return demotions, false
		}
		demotions = append(demotions, Demotion{
			CPU:           best,
			From:          table.FrequencyAtIndex(idx[best]),
			To:            table.FrequencyAtIndex(idx[best] - 1),
			PredictedLoss: bestLoss,
		})
		idx[best]--
	}
}

// stepTwoDecs are the quantised decompositions the fuzzer draws rows
// from: a handful of shapes, so many processors share a row and loss and
// index ties are common. The first entry is pure CPU-bound.
var stepTwoDecs = []perfmodel.Decomposition{
	{InvAlpha: 1},
	{InvAlpha: 1, StallSecPerInstr: 2e-9},
	{InvAlpha: 0.5, StallSecPerInstr: 5e-9},
	{InvAlpha: 2, StallSecPerInstr: 1e-9},
	{InvAlpha: 0.8, StallSecPerInstr: 12e-9},
}

// stepTwoInput decodes fuzz bytes into a Step-2 instance: a shipped
// table, a grid whose rows are quantised decompositions or invalid
// (idle/unobserved), the starting indices, and a whole-watt budget
// between one watt under the floor and one watt over the desire.
func stepTwoInput(data []byte, tableSel uint8, budgetSel uint16) (*perfmodel.PredGrid, []int, *power.Table, units.Power) {
	table := power.PaperTable1()
	if tableSel%2 == 1 {
		table = power.Section5Table()
	}
	n := len(data) / 2
	if n > 64 {
		n = 64
	}
	g := &perfmodel.PredGrid{}
	g.Reset(n, table.Frequencies())
	idx := make([]int, n)
	for p := 0; p < n; p++ {
		kind, at := int(data[2*p]), int(data[2*p+1])
		idx[p] = at % table.Len()
		if d := kind % (len(stepTwoDecs) + 2); d < len(stepTwoDecs) {
			g.Fill(p, stepTwoDecs[d])
		}
	}
	floor := units.Power(float64(n)) * table.PowerAtIndex(0)
	desire := StartPower(table, idx)
	span := int(desire.W()-floor.W()) + 3
	budget := floor - units.Watts(1) + units.Watts(float64(int(budgetSel)%span))
	return g, idx, table, budget
}

// FuzzStepTwo pins the kernel to the re-summing witness: the same
// demotions in the same order, the same final indices and the same met
// flag, for every budget from under the floor to over the desire. It then
// checks that Step 2 is a prefix of the demand curve: the kernel's
// running power after k demotions (run to the floor) equals the witness's
// re-sum of that state, and a cut at exactly that power stops after
// exactly k demotions.
func FuzzStepTwo(f *testing.F) {
	f.Add([]byte{0, 15, 1, 15, 2, 9, 5, 3}, uint8(0), uint16(100))
	f.Add([]byte{6, 4, 6, 4, 0, 4, 0, 4, 1, 2}, uint8(1), uint16(7))
	f.Add([]byte{3, 0, 4, 1, 2, 2, 1, 3, 0, 4}, uint8(1), uint16(65535))
	f.Fuzz(func(t *testing.T, data []byte, tableSel uint8, budgetSel uint16) {
		g, start, table, budget := stepTwoInput(data, tableSel, budgetSel)

		wantIdx := append([]int(nil), start...)
		want, wantMet := rescanStepTwo(g, wantIdx, table, budget)
		var k Kernel
		gotIdx := append([]int(nil), start...)
		got, met := k.Fit(g, gotIdx, table, budget, nil)
		if met != wantMet || len(got) != len(want) {
			t.Fatalf("kernel met=%v after %d demotions, witness met=%v after %d", met, len(got), wantMet, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("demotion %d: kernel %+v, witness %+v", i, got[i], want[i])
			}
		}
		for p := range wantIdx {
			if gotIdx[p] != wantIdx[p] {
				t.Fatalf("cpu %d: kernel index %d, witness %d", p, gotIdx[p], wantIdx[p])
			}
		}

		// The curve: run to the floor, recording the running power.
		curveIdx := append([]int(nil), start...)
		k.StartRows(g, curveIdx, table)
		powers := []units.Power{k.Total()}
		replay := append([]int(nil), start...)
		for key, ok := k.Next(ToFloor); ok; key, ok = k.Next(ToFloor) {
			replay[key.Proc]--
			if p := StartPower(table, replay); k.Total() != p {
				t.Fatalf("point %d: running power %v, re-sum %v", len(powers), k.Total(), p)
			}
			powers = append(powers, k.Total())
		}
		for p, i := range curveIdx {
			if i != 0 {
				t.Fatalf("curve ended with cpu %d at index %d, not the floor", p, i)
			}
		}
		for pt, pw := range powers {
			cut := append([]int(nil), start...)
			demos, met := k.Fit(g, cut, table, pw, nil)
			if !met || len(demos) != pt || k.Total() != pw {
				t.Fatalf("cut at point %d power %v: %d demotions, power %v, met %v", pt, pw, len(demos), k.Total(), met)
			}
		}
	})
}

// TestKernelFitsWithoutHeapWork: a pass whose starting power already
// fits the budget never builds the heap.
func TestKernelFitsWithoutHeapWork(t *testing.T) {
	table := power.PaperTable1()
	var g perfmodel.PredGrid
	g.Reset(4, table.Frequencies())
	idx := []int{15, 15, 15, 15}
	var k Kernel
	demos, met := k.Fit(&g, idx, table, units.Watts(560), nil)
	if !met || len(demos) != 0 || k.built || cap(k.heap) != 0 {
		t.Fatalf("met=%v demotions=%d built=%v heap cap=%d", met, len(demos), k.built, cap(k.heap))
	}
}

// BenchmarkStepTwo times one Step-2 pass at 256 to 81920 processors
// (the largest is 10k nodes × 8 CPUs) under a deep cut — 30% of the way
// from the floor to the desire — so most processors take several
// demotions. ns/op at 4N over
// ns/op at N near 4 (not 16) shows the O(D log N) kernel.
func BenchmarkStepTwo(b *testing.B) {
	table := power.PaperTable1()
	for _, n := range []int{256, 1024, 4096, 20480, 81920} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			var g perfmodel.PredGrid
			g.Reset(n, table.Frequencies())
			start := make([]int, n)
			for p := range start {
				g.Fill(p, perfmodel.Decomposition{InvAlpha: 0.8 + float64(p%15)/10, StallSecPerInstr: float64(p%12) * 1e-9})
				start[p] = table.Len() - 1 - p%4
			}
			floor := units.Power(float64(n)) * table.PowerAtIndex(0)
			budget := floor + (StartPower(table, start)-floor)*3/10
			idx := make([]int, n)
			var k Kernel
			demos := make([]Demotion, 0, n*table.Len())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(idx, start)
				demos, _ = k.Fit(&g, idx, table, budget, demos[:0])
			}
			b.ReportMetric(float64(len(demos)), "demotions/op")
		})
	}
}
