package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/farm"
	"repro/internal/invariant"
	"repro/internal/obs"
)

// setupBuilds is how many times an untraced repetition builds its fleet
// (driving only the last), so set-up time is a median of many builds.
const setupBuilds = 5

// rep is one build-and-run of a workload.
type rep struct {
	setups []time.Duration
	run    time.Duration
	// epochs holds the host time of each step of the farm loop: the
	// initial reallocation pass, then one entry per reallocation period.
	// Every repetition of one seed does the same work in step k. probes
	// holds the probe timed right after each step (untraced runs only).
	epochs []time.Duration
	probes []probeSample
	// setupProbes holds the probe median taken before each set-up build.
	setupProbes []probeSample
	// realloc holds the host time of every reallocation pass: each
	// cluster's DemandCurve plus Allocate. reallocStep is the loop step
	// each pass ran in.
	realloc       []time.Duration
	reallocStep   []int
	allocBytes    uint64
	retainedBytes uint64

	energyJ, instr float64
	nodeSeconds    float64

	attempted, failed int
	violations        []string
	fingerprint       string

	// Layer counts, identical across the runs of one seed.
	allocCalls, curveCalls, curvePoints int
	passes, demotionSteps               int
	quantaTotal, quantaSkipped          int
	offered                             uint64
	peakBacklog                         int
	webSLO, webP99                      float64

	// Traced run only.
	layers [numLayers]time.Duration
	events int
}

// hostProbe times the host's speed in untraced runs; see probe.go.
var hostProbe *prober

// runOnce builds the workload from the seed and drives it to its horizon.
// A non-nil tracer makes it the traced run.
func runOnce(w workloadDef, sh shape, seed int64, tr *tracer) (*rep, error) {
	r := &rep{}
	if tr == nil && hostProbe == nil {
		p, err := newProber()
		if err != nil {
			return nil, err
		}
		hostProbe = p
	}
	var f *fleet
	builds := setupBuilds
	if tr != nil {
		builds = 1
	}
	for i := 0; i < builds; i++ {
		runtime.GC()
		if tr == nil {
			r.setupProbes = append(r.setupProbes, hostProbe.median(5))
		}
		t0 := time.Now()
		var err error
		f, err = w.build(rand.New(rand.NewSource(seed)), sh, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: build: %w", w.name, err)
		}
		r.setups = append(r.setups, time.Since(t0))
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t1 := time.Now()
	tr.begin(layerUnattributed)
	if err := f.drive(r, tr); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	r.run = time.Since(t1)
	for _, s := range r.probes {
		for _, d := range s {
			r.run -= d
		}
	}
	if d := tr.end(); tr != nil {
		// The traced run's host time is its outermost span, so the layer
		// rows add up to it exactly.
		r.run = d
	}
	runtime.ReadMemStats(&after)
	r.allocBytes = after.TotalAlloc - before.TotalAlloc
	runtime.GC()
	runtime.ReadMemStats(&after)
	r.retainedBytes = after.HeapAlloc

	if err := f.finish(r); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if tr != nil {
		r.layers = tr.self
		r.events = tr.events
	}
	runtime.KeepAlive(f)
	return r, nil
}

// drive runs the farm loop: a reallocation pass at t=0, then every
// reallocation period each coordinator runs RunDES to the edge and the
// allocator decides whether a pass is due.
func (f *fleet) drive(r *rep, tr *tracer) error {
	last := time.Now()
	lap := func() {
		r.epochs = append(r.epochs, time.Since(last))
		if tr == nil {
			r.probes = append(r.probes, hostProbe.sample())
		}
		last = time.Now()
	}
	if err := f.realloc(r, tr, 0, "initial"); err != nil {
		return err
	}
	lap()
	period := float64(farmPeriods) * f.quantum
	epochs := int(math.Round(f.horizon / period))
	for k := 1; k <= epochs; k++ {
		// Half a quantum short of the edge: coordinator clocks accumulate
		// one addition per quantum and land just below k·period.
		until := (float64(k*farmPeriods) - 0.5) * f.quantum
		for _, u := range f.units {
			tr.begin(layerRunSelf)
			err := u.coord.RunDES(until)
			tr.end()
			if err != nil {
				return fmt.Errorf("cluster %s: %w", u.name, err)
			}
		}
		backlog := 0
		for _, u := range f.units {
			for _, s := range u.stations {
				backlog += s.st.Backlog()
			}
		}
		if backlog > r.peakBacklog {
			r.peakBacklog = backlog
		}
		if k == epochs {
			lap()
			break
		}
		now := f.units[0].coord.Now()
		if trig, due := f.alloc.Trigger(now, true); due {
			if err := f.realloc(r, tr, now, trig); err != nil {
				return err
			}
		}
		lap()
	}
	return nil
}

// realloc is one farm reallocation pass, timed as a realloc sample, then
// checked: the allocation, the farm's charge against the source budget,
// and every cluster's lease holder.
func (f *fleet) realloc(r *rep, tr *tracer, now float64, trigger string) error {
	start := time.Now()
	demands := make([]farm.Demand, len(f.units))
	for i, u := range f.units {
		tr.begin(layerDemandCurve)
		curve, err := u.coord.DemandCurve()
		tr.end()
		if err != nil {
			return fmt.Errorf("cluster %s: demand curve: %w", u.name, err)
		}
		demands[i] = farm.Demand{Curve: curve, Reachable: true}
		r.curveCalls++
		r.curvePoints += len(curve.Points)
	}
	tr.begin(layerFarmAllocate)
	alloc, err := f.alloc.Allocate(now, trigger, demands)
	if err == nil {
		for i, l := range alloc.Leases {
			f.units[i].holder.Grant(l)
		}
	}
	tr.end()
	r.realloc = append(r.realloc, time.Since(start))
	r.reallocStep = append(r.reallocStep, len(r.epochs))
	if err != nil {
		return fmt.Errorf("allocate at %g: %w", now, err)
	}
	r.allocCalls++

	vs := invariant.CheckAllocation(f.members, alloc)
	vs = append(vs, invariant.CheckFarmCharge(now, f.source.BudgetAt(now), alloc.Charged)...)
	for _, u := range f.units {
		vs = append(vs, invariant.CheckHolder(now, u.holder)...)
	}
	r.violate(vs)
	if !f.serving() {
		// Outside farm-serve each reallocation is an operation; it fails
		// if it misses its budget.
		r.attempted++
		if !alloc.Met {
			r.failed++
		}
	}
	return nil
}

// serving reports whether the fleet's operations are requests rather
// than passes.
func (f *fleet) serving() bool { return len(f.units[0].stations) > 0 }

func (r *rep) violate(vs []invariant.Violation) {
	for _, v := range vs {
		r.violations = append(r.violations, fmt.Sprintf("%s at t=%g: %s", v.Checker, v.At, v.Detail))
	}
}

// finish reads the simulated outcome, runs the end-of-run checks and
// hashes everything the run decided into the fingerprint.
func (f *fleet) finish(r *rep) error {
	h := sha256.New()
	var buf []byte
	put := func(vs ...float64) {
		buf = buf[:0]
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		h.Write(buf)
	}
	quanta := int(math.Round(f.horizon / f.quantum))
	var webOK, webResolved uint64
	for _, u := range f.units {
		fmt.Fprintf(h, "cluster %s\n", u.name)
		for _, d := range u.coord.Decisions() {
			fmt.Fprintf(h, "%s %t\n", d.Trigger, d.BudgetMet)
			put(d.At, d.Budget.W(), d.TablePower.W())
			for _, a := range d.Assignments {
				idle := 0.0
				if a.Idle {
					idle = 1
				}
				put(float64(a.Proc.Node), float64(a.Proc.CPU), a.Desired.Hz(), a.Actual.Hz(), a.Voltage.V(), a.PredictedLoss, idle)
				r.demotionSteps += f.table.IndexOf(a.Desired) - f.table.IndexOf(a.Actual)
			}
			r.passes++
			if !f.serving() {
				r.attempted++
				if !d.BudgetMet {
					r.failed++
				}
			}
		}
		if l, ok := u.holder.Lease(); ok {
			put(l.Budget.W(), l.Granted, l.Expires)
		}
		for _, m := range u.machines {
			r.energyJ += m.CPUEnergy().J()
			put(m.CPUEnergy().J(), m.Energy().J(), m.Now())
			for cpu := 0; cpu < m.NumCPUs(); cpu++ {
				s, err := m.ReadCounters(cpu)
				if err != nil {
					return err
				}
				r.instr += float64(s.Instructions)
				put(float64(s.Instructions), float64(s.Cycles), float64(s.HaltedCycles),
					float64(s.L2Refs), float64(s.L3Refs), float64(s.MemRefs))
			}
		}
		r.quantaTotal += quanta * len(u.machines)
		r.quantaSkipped += u.skips.skipped * len(u.machines)
		for _, s := range u.stations {
			a := s.st.Account()
			r.violate(invariant.CheckQueueConservation(invariant.QueueLedger{
				Node: u.name, At: u.coord.Now(),
				Offered: a.Offered, Admitted: a.Admitted, Rejected: a.Rejected, Dropped: a.Dropped,
				Completed: a.Completed, TimedOut: a.TimedOut, Queued: a.Queued, InService: a.InService,
			}))
			sum := s.st.Scoreboard().Summarize(f.horizon)
			fmt.Fprintf(h, "%+v\n%s", a, sum.Render())
			// Each offered request is an operation; rejected, dropped and
			// timed-out requests fail.
			r.attempted += int(a.Offered)
			r.failed += int(a.Rejected + a.Dropped + a.TimedOut)
			r.offered += a.Offered
			web := sum.Classes[0]
			webOK += web.SLOOk
			webResolved += web.Completed + web.TimedOut
			r.webP99 = math.Max(r.webP99, web.P99S)
		}
		if u.ledger != nil {
			var text bytes.Buffer
			sections := []string{obs.SectionEnergy, obs.SectionCompliance, obs.SectionPrediction, obs.SectionServing}
			if err := u.ledger.Summary().WriteText(&text, sections); err != nil || text.Len() == 0 {
				r.violations = append(r.violations, fmt.Sprintf("ledger %s does not render: %v", u.name, err))
			}
			h.Write(text.Bytes())
		}
	}
	if webResolved > 0 {
		r.webSLO = float64(webOK) / float64(webResolved)
	}
	r.nodeSeconds = float64(f.nodes) * f.horizon
	// Every invariant violation is a failed operation too.
	r.failed += len(r.violations)
	r.fingerprint = hex.EncodeToString(h.Sum(nil))
	return nil
}
