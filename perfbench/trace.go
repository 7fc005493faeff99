package main

import (
	"math"
	"time"

	"repro/internal/obs"
)

// layer names one row of the traced run's self-time table.
type layer int

const (
	layerFarmAllocate layer = iota
	layerDemandCurve
	layerRunSelf
	layerPass
	layerActuate
	layerGridFill
	layerStepOne
	layerStepTwo
	layerStepThree
	layerLockstep
	layerServeHook
	layerObsEmit
	// layerUnattributed collects the benchmark's own work (its epoch loop
	// and invariant checks) and the trace sink's bookkeeping.
	layerUnattributed
	numLayers
)

// layerInfo names each row by its per-layer metric and says which
// end-to-end metric, on which workload, the row should move.
var layerInfo = [numLayers]struct{ metric, moves string }{
	layerFarmAllocate: {"farm.allocate_s", "realloc_p50_us/realloc_p95_us on deep-cut"},
	layerDemandCurve:  {"cluster.demand_curve_s", "realloc_p50_us/realloc_p95_us on deep-cut"},
	layerRunSelf:      {"cluster.run_self_s", "sim_node_s_per_s on fleet-idle"},
	layerPass:         {"cluster.pass_s", "sim_node_s_per_s on deep-cut/farm-serve"},
	layerActuate:      {"cluster.actuate_s", "sim_node_s_per_s on deep-cut/farm-serve"},
	layerGridFill:     {"fvsst.grid_fill_s", "sim_node_s_per_s on deep-cut/farm-serve"},
	layerStepOne:      {"fvsst.step1_s", "sim_node_s_per_s on deep-cut/farm-serve"},
	layerStepTwo:      {"fvsst.step2_s", "sim_node_s_per_s on deep-cut"},
	layerStepThree:    {"fvsst.step3_s", "sim_node_s_per_s on deep-cut/farm-serve"},
	layerLockstep:     {"machine.lockstep_s", "sim_node_s_per_s on deep-cut/farm-serve"},
	layerServeHook:    {"serve.hook_s", "sim_node_s_per_s and serve.web_* on farm-serve"},
	layerObsEmit:      {"obs.emit_s", "sim_node_s_per_s on farm-serve"},
	layerUnattributed: {"unattributed_s", "nothing; benchmark loop and trace bookkeeping"},
}

// spanLayers maps the program's own pass-child spans to their rows.
var spanLayers = map[string]layer{
	obs.SpanGridFill:  layerGridFill,
	obs.SpanStepOne:   layerStepOne,
	obs.SpanStepTwo:   layerStepTwo,
	obs.SpanStepThree: layerStepThree,
	obs.SpanActuate:   layerActuate,
}

type frame struct {
	l     layer
	start time.Time
	child time.Duration
}

// tracer times the benchmark's calls into each layer and keeps a stack of
// open spans, so every row is a self time: a span's duration minus the
// part of it its child spans cover. The rows of one run therefore add up
// to the outermost span, the traced run's host time. A nil *tracer is the
// untraced run: every method is a no-op and reads no clock.
type tracer struct {
	stack []frame
	self  [numLayers]time.Duration

	// Pass bookkeeping for the program's spans, which arrive through the
	// sink after the timed work: the pass's schedule event opens it, the
	// "pass" span closes it.
	inPass   bool
	passEmit time.Duration
	children [numLayers]time.Duration

	// events counts what reached a wrapped ledger.
	events int
}

func (t *tracer) begin(l layer) {
	if t == nil {
		return
	}
	t.stack = append(t.stack, frame{l: l, start: time.Now()})
}

// end closes the innermost open span and returns its full duration.
func (t *tracer) end() time.Duration {
	if t == nil {
		return 0
	}
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := time.Since(f.start)
	t.self[f.l] += d - f.child
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
	return d
}

// seconds converts a span duration reported by the program.
func seconds(s float64) time.Duration { return time.Duration(math.Round(s * 1e9)) }

// traceSink is the sink attached to coordinators and stations in the
// traced run. It forwards every event to the workload's own sink (the
// farm-serve ledger; nil elsewhere), timing that forward as obs.emit, and
// books the program's grid-fill/step1/step2/step3/actuate/pass spans into
// the tracer's table.
type traceSink struct {
	t     *tracer
	inner obs.Sink
}

func (s *traceSink) Emit(e obs.Event) {
	t := s.t
	if e.Type == obs.EventSchedule {
		t.inPass, t.passEmit, t.children = true, 0, [numLayers]time.Duration{}
	}
	// The sink's own bookkeeping is trace overhead: it lands in the
	// unattributed row, with the forward to the ledger as its child.
	t.begin(layerUnattributed)
	if s.inner != nil {
		t.begin(layerObsEmit)
		s.inner.Emit(e)
		t.end()
		t.events++
	}
	closes := false
	if e.Type == obs.EventSpan && e.Parent == obs.SpanPass {
		if l, ok := spanLayers[e.Span]; ok {
			t.children[l] += seconds(e.DurS)
		}
	}
	if e.Type == obs.EventSpan && e.Span == obs.SpanPass && t.inPass {
		closes = true
	}
	d := t.end()
	switch {
	case closes:
		t.closePass(seconds(e.DurS))
	case t.inPass:
		// Everything emitted between the schedule event and the pass
		// span lies inside the pass span's measured duration.
		t.passEmit += d
	}
}

// closePass books one finished scheduling pass into the open benchmark
// span: each child span's row, the pass's own self time, and — as the
// enclosing span's child time — the part of the pass not already booked
// there as emit time.
func (t *tracer) closePass(pass time.Duration) {
	var kids time.Duration
	for l, d := range t.children {
		if d != 0 {
			t.self[l] += d
			kids += d
		}
	}
	self := pass - kids - t.passEmit
	if self < 0 {
		self = 0
	}
	t.self[layerPass] += self
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += kids + self
	}
	t.inPass = false
}

// skipCounter is a pass-through cluster.Waker and QuantaSkipper: it never
// bounds a skip and counts the quanta RunDES fast-forwarded.
type skipCounter struct{ skipped int }

func (s *skipCounter) NextWakeAt(float64) float64 { return math.Inf(1) }
func (s *skipCounter) SkipQuanta(n int)           { s.skipped += n }
