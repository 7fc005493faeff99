package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// contract is the metric list BENCHMARK.json declares.
type contract struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestTinyRuns drives every workload at its tiny shape, untraced and
// traced, and checks the run is clean, deterministic and fully reported.
func TestTinyRuns(t *testing.T) {
	c := readContract(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				var out bytes.Buffer
				res, err := measure(&out, w, w.tiny, 7, 0, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d\n%s",
						traced, res.Correct, res.Attempted, res.Failed, out.String())
				}
				want := c.EndToEnd
				if traced {
					want = c.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, contract lists %d", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("traced=%v: metric %s = %+v, want unit %s", traced, m.Name, got, m.Unit)
					}
					if !strings.Contains(out.String(), " "+m.Name+" ") {
						t.Errorf("traced=%v: metric %s not printed", traced, m.Name)
					}
				}
			}
		})
	}
}

// TestFingerprintStable checks that two untraced runs and a traced run of
// one seed decide exactly the same things, and that the seed matters.
func TestFingerprintStable(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, err := runOnce(w, w.tiny, 3, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runOnce(w, w.tiny, 3, nil)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := runOnce(w, w.tiny, 3, &tracer{})
			if err != nil {
				t.Fatal(err)
			}
			other, err := runOnce(w, w.tiny, 4, nil)
			if err != nil {
				t.Fatal(err)
			}
			if a.fingerprint != b.fingerprint || a.fingerprint != tr.fingerprint {
				t.Errorf("fingerprints differ: %s %s traced %s", a.fingerprint, b.fingerprint, tr.fingerprint)
			}
			if a.fingerprint == other.fingerprint {
				t.Errorf("seeds 3 and 4 share fingerprint %s", a.fingerprint)
			}
			if len(a.violations) > 0 {
				t.Errorf("violations: %v", a.violations)
			}
		})
	}
}

// TestLayerIsolation checks the traced table's shape: serving and
// observation rows are nonzero on farm-serve only, the rows add up to the
// traced run's host time, and fleet-idle fast-forwards most quanta.
func TestLayerIsolation(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain, err := runOnce(w, w.tiny, 5, nil)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := runOnce(w, w.tiny, 5, &tracer{})
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			m := layerMetrics(&out, []*rep{plain}, []*rep{tr})
			serving := w.name == "farm-serve"
			for name, v := range m {
				if (strings.HasPrefix(name, "serve.") || name == "obs.emit_s" || name == "obs.events") &&
					(v.Value != 0) != serving {
					t.Errorf("%s = %g on %s", name, v.Value, w.name)
				}
			}
			var sum float64
			for l := layer(0); l < numLayers; l++ {
				sum += tr.layers[l].Seconds()
			}
			if total := tr.run.Seconds(); sum < total*(1-1e-9) || sum > total*(1+1e-9) {
				t.Errorf("layer rows sum to %g s, traced run took %g s", sum, total)
			}
			if w.name == "fleet-idle" && m["machine.skip_ratio"].Value <= 0.5 {
				t.Errorf("fleet-idle skip ratio %g, want > 0.5", m["machine.skip_ratio"].Value)
			}
		})
	}
}

// TestProbeScaling checks the reference-time arithmetic: a probe at its
// reference times means no slowdown, a uniformly slower probe scales host
// time down by the same factor, and smoothing takes the median of the
// window around each step, so one outlier does not move it.
func TestProbeScaling(t *testing.T) {
	if s := probeRef.slowdown(allParts); s != 1 {
		t.Errorf("reference probe slowdown %g, want 1", s)
	}
	var twice probeSample
	for i := range twice {
		twice[i] = 2 * probeRef[i]
	}
	if s := twice.slowdown([]probePart{partScan}); s != 2 {
		t.Errorf("doubled scan slowdown %g, want 2", s)
	}
	if d := toReference(10*time.Millisecond, twice.slowdown(allParts)); d != 5*time.Millisecond {
		t.Errorf("10 ms at slowdown 2 is %v reference, want 5ms", d)
	}
	ss := make([]probeSample, 20)
	for i := range ss {
		ss[i] = probeRef
	}
	ss[7] = twice
	for k, s := range smoothed(ss) {
		if s != probeRef {
			t.Errorf("step %d smoothed to %v, want %v", k, s, probeRef)
		}
	}
	p, err := newProber()
	if err != nil {
		t.Fatal(err)
	}
	for part, d := range p.median(3) {
		if d <= 0 {
			t.Errorf("probe part %d took %v", part, d)
		}
	}
}
