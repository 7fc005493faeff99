// Command perfbench is the fleet benchmark: it generates a workload from
// a seed, drives the whole power-management stack on it — budget source,
// farm allocator, cluster coordinators, fvsst Steps 1–3, machines and,
// on farm-serve, serving stations and ledgers — through public calls
// only, checks the result, and prints its metrics.
//
//	go run . --workload deep-cut --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, measured untraced; with --trace 1
// they are the per-layer ones from a separate traced run of the same
// seed. --workload all runs every workload in turn. The command exits 1
// on any invariant violation or fingerprint mismatch. End-to-end host
// times are rescaled to reference time by a probe of the host's speed
// (probe.go); run it through run.py, which also sets the GODEBUG the
// measurements assume.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// minReps is the fewest build-and-run repetitions one invocation makes,
// whatever --seconds says, so that after the warm-up repetition set-up
// time is still a median.
const minReps = 3

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: fleet-idle, deep-cut, farm-serve or all")
	seed := flag.Int64("seed", 1, "workload generator seed")
	secs := flag.Float64("seconds", 10, "host seconds to keep repeating the run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	// The benchmark loop is one goroutine; with one P the collector runs on the
	// same core, so its cost is in the measured time whatever else the
	// host's other cores are doing.
	runtime.GOMAXPROCS(1)
	if err := run(os.Stdout, *name, *seed, *secs, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, name string, seed int64, secs float64, traced bool) error {
	defs := workloads
	if name != "all" {
		w, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		defs = []workloadDef{w}
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range defs {
		res, err := measure(out, w, w.full, seed, secs, traced)
		if err != nil {
			return err
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(defs) > 1 {
				k = w.name + "." + k
			}
			total.Metrics[k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	if !total.Correct {
		return fmt.Errorf("run failed its correctness checks")
	}
	return nil
}

// measure repeats build-and-run of one workload for secs host seconds
// (at least minReps times), checks every repetition against the first,
// and reduces them to metrics. In the traced mode each repetition is an
// untraced run followed by a traced run of the same seed.
func measure(out io.Writer, w workloadDef, sh shape, seed int64, secs float64, traced bool) (result, error) {
	deadline := time.Now().Add(time.Duration(secs * float64(time.Second)))
	var plain, tracedReps []*rep
	for len(plain) < minReps || time.Now().Before(deadline) {
		r, err := runOnce(w, sh, seed, nil)
		if err != nil {
			return result{}, err
		}
		plain = append(plain, r)
		if traced {
			r, err := runOnce(w, sh, seed, &tracer{})
			if err != nil {
				return result{}, err
			}
			tracedReps = append(tracedReps, r)
		}
	}
	first := plain[0]
	res := result{Correct: true, Metrics: map[string]metric{}}
	fmt.Fprintf(out, "workload %s seed %d: %d nodes x %g s simulated, %d repetitions\n",
		w.name, seed, int(first.nodeSeconds/sh.horizon), sh.horizon, len(plain))
	fmt.Fprintf(out, "fingerprint %s\n", first.fingerprint)
	for _, r := range append(plain, tracedReps...) {
		res.Attempted += r.attempted
		res.Failed += r.failed
		if r.fingerprint != first.fingerprint {
			res.Correct = false
			fmt.Fprintf(out, "FINGERPRINT MISMATCH: %s vs %s\n", r.fingerprint, first.fingerprint)
		}
		if len(r.epochs) != len(first.epochs) || len(r.realloc) != len(first.realloc) {
			res.Correct = false
			fmt.Fprintf(out, "STEP MISMATCH: %d loop steps and %d reallocations vs %d and %d\n",
				len(r.epochs), len(r.realloc), len(first.epochs), len(first.realloc))
		}
		for _, v := range r.violations {
			res.Correct = false
			fmt.Fprintf(out, "INVARIANT VIOLATION: %s\n", v)
		}
	}
	fmt.Fprintf(out, "operations %d failed %d (failed_ratio %g)\n",
		res.Attempted, res.Failed, float64(res.Failed)/math.Max(1, float64(res.Attempted)))
	if !res.Correct {
		// Mismatched repetitions cannot be reduced step by step.
		return res, nil
	}
	if traced {
		res.Metrics = layerMetrics(out, plain, tracedReps)
	} else {
		// The first repetition is a warm-up: it faults the heap in and
		// fills the caches. It is checked like the others but not timed.
		res.Metrics = endToEnd(out, plain[1:], w.probeParts)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	return res, nil
}

// endToEnd reduces untraced repetitions to the user-visible metrics.
// Host times are in reference time (see probe.go): each farm-loop step,
// each reallocation pass and each set-up build is rescaled by the
// slowdown of the workload's probe parts measured next to it.
//
// Every repetition of a seed replays the same loop steps and the same
// reallocation passes, so each step and each pass is reduced to its
// median over the repetitions first. That drops what lands on a pass in
// one repetition but not the next — a burst of host contention shorter
// than the probe window, a garbage collection — and keeps the cost of
// the work itself. sim_node_s_per_s divides the simulated node-seconds by
// the sum of the step medians; the realloc percentiles are over the pass
// medians. Set-up time and memory are medians over builds and
// repetitions.
func endToEnd(out io.Writer, reps []*rep, parts []probePart) map[string]metric {
	var setup, raw, slow, alloc, retained []float64
	steps := make([][]float64, len(reps[0].epochs))
	passes := make([][]float64, len(reps[0].realloc))
	for _, r := range reps {
		for i, d := range r.setups {
			setup = append(setup, toReference(d, r.setupProbes[i].slowdown(allParts)).Seconds())
		}
		speed := smoothed(r.probes)
		for k, d := range r.epochs {
			s := speed[k].slowdown(parts)
			slow = append(slow, s)
			steps[k] = append(steps[k], toReference(d, s).Seconds())
		}
		for j, d := range r.realloc {
			s := speed[r.reallocStep[j]].slowdown(parts)
			passes[j] = append(passes[j], float64(toReference(d, s).Nanoseconds())/1e3)
		}
		raw = append(raw, r.nodeSeconds/r.run.Seconds())
		alloc = append(alloc, float64(r.allocBytes)/(1<<20))
		retained = append(retained, float64(r.retainedBytes)/(1<<20))
	}
	var run float64
	for _, ts := range steps {
		run += median(ts)
	}
	realloc := make([]float64, len(passes))
	for j, ts := range passes {
		realloc[j] = median(ts)
	}
	var all []probeSample
	for _, r := range reps {
		all = append(all, r.probes...)
	}
	m := medianSample(all)
	fmt.Fprintf(out, "host time: median repetition %.6g node-s/s unscaled; median slowdown %.3f; probe medians %v\n",
		median(raw), median(slow), m[:])
	r := reps[0]
	return map[string]metric{
		"setup_s":          {median(setup), "s"},
		"sim_node_s_per_s": {r.nodeSeconds / run, "1/s"},
		"realloc_p50_us":   {quantile(realloc, 0.50), "us"},
		"realloc_p95_us":   {quantile(realloc, 0.95), "us"},
		"alloc_mb":         {median(alloc), "MiB"},
		"retained_mb":      {median(retained), "MiB"},
		"sim_energy_kj":    {r.energyJ / 1e3, "kJ"},
		"sim_ginstr":       {r.instr / 1e9, "Ginstr"},
	}
}

// layerMetrics reports the per-layer split. Times come from the traced
// repetition with the median host time, so its rows still add up to its
// total; counts and skip figures come from the untraced runs, where the
// engine is free to fast-forward.
func layerMetrics(out io.Writer, plain, traced []*rep) map[string]metric {
	sort.Slice(traced, func(i, j int) bool { return traced[i].run < traced[j].run })
	tr := traced[(len(traced)-1)/2]
	var plainRun, tracedRun []float64
	for i := range plain {
		plainRun = append(plainRun, plain[i].run.Seconds())
		tracedRun = append(tracedRun, traced[i].run.Seconds())
	}
	var samples int
	for _, r := range plain {
		samples += len(r.realloc)
	}
	p := plain[0]
	skipRatio := float64(p.quantaSkipped) / float64(p.quantaTotal)
	m := map[string]metric{
		"traced_run_s":               {tr.run.Seconds(), "s"},
		"obs.trace_overhead_x":       {median(tracedRun) / median(plainRun), "x"},
		"farm.allocate_calls":        {float64(p.allocCalls), "count"},
		"farm.curve_points":          {float64(p.curvePoints), "count"},
		"farm.realloc_samples":       {float64(samples), "count"},
		"cluster.demand_curve_calls": {float64(p.curveCalls), "count"},
		"cluster.passes":             {float64(p.passes), "count"},
		"fvsst.demotion_steps":       {float64(p.demotionSteps), "count"},
		"machine.quanta_stepped":     {float64(p.quantaTotal - p.quantaSkipped), "count"},
		"machine.quanta_skipped":     {float64(p.quantaSkipped), "count"},
		"machine.skip_ratio":         {skipRatio, "ratio"},
		"serve.offered":              {float64(p.offered), "count"},
		"serve.peak_backlog":         {float64(p.peakBacklog), "count"},
		"serve.web_slo_attainment":   {p.webSLO, "ratio"},
		"serve.web_p99_ms":           {p.webP99 * 1e3, "ms"},
		"obs.events":                 {float64(tr.events), "count"},
	}
	fmt.Fprintf(out, "layer table (traced run, %.4f s host time)\n", tr.run.Seconds())
	fmt.Fprintf(out, "  %-24s %10s %7s  %s\n", "layer", "self s", "share", "should move")
	var sum time.Duration
	for l := layer(0); l < numLayers; l++ {
		d := tr.layers[l]
		sum += d
		m[layerInfo[l].metric] = metric{d.Seconds(), "s"}
		fmt.Fprintf(out, "  %-24s %10.4f %6.1f%%  %s\n", layerInfo[l].metric, d.Seconds(),
			100*d.Seconds()/tr.run.Seconds(), layerInfo[l].moves)
	}
	fmt.Fprintf(out, "  %-24s %10.4f\n", "sum", sum.Seconds())
	return m
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated p-quantile.
func quantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
