package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/schema"
)

// validName is the shape every metric name must have.
var validName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// shrink scales a workload down to datasize d and, for the paced
// workloads, a ten times faster schedule.
func shrink(w Workload, d float64) Workload {
	w.D = d
	if !w.Fast {
		w.T = 10
	}
	return w
}

func runShrunk(t *testing.T, w Workload, d float64, periods int, traced bool, damage func(*core.Benchmark)) *Outcome {
	t.Helper()
	out, err := Run(context.Background(), shrink(w, d), Options{
		Seed: 42, Periods: periods, Traced: traced,
		Scratch: t.TempDir(), damage: damage,
	})
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	return out
}

// tinyRun runs a workload at the self-test scale: d=0.05, two periods.
func tinyRun(t *testing.T, w Workload, traced bool, damage func(*core.Benchmark)) *Outcome {
	t.Helper()
	return runShrunk(t, w, 0.05, 2, traced, damage)
}

// TestSelfTest runs every workload shape at d=0.05 for two periods,
// untraced and traced, and checks that every named metric is emitted,
// finite, carries its unit, and has a well-formed name.
func TestSelfTest(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			untraced := tinyRun(t, w, false, nil)
			traced := tinyRun(t, w, true, nil)
			traced.compareUntraced(untraced.summary())
			if !untraced.Correct || !traced.Correct {
				t.Fatalf("verification failed:\n%s\n%s",
					strings.Join(untraced.Lines, "\n"), strings.Join(traced.Lines, "\n"))
			}
			check := func(out *Outcome, defs []Def) {
				for _, d := range defs {
					if !validName.MatchString(d.Name) {
						t.Errorf("metric name %q is malformed", d.Name)
					}
					m, ok := out.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", d.Name)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v, want a finite value", d.Name, m.Value)
					case m.Unit == "" || m.Unit != d.Unit:
						t.Errorf("metric %s unit %q, want %q", d.Name, m.Unit, d.Unit)
					}
				}
			}
			check(untraced, endToEnd)
			check(traced, endToEnd)
			check(traced, perLayer)
			for _, d := range endToEnd {
				if v := untraced.Metrics[d.Name].Value; v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, v)
				}
			}
		})
	}
}

// TestSetupSample times one set-up of every workload shape at d=0.05.
func TestSetupSample(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			s, b, err := SetupSample(context.Background(), shrink(w, 0.05), Options{
				Seed: 42, Periods: 2, Scratch: t.TempDir(),
			})
			if b != nil {
				// The cancelled run can leave dialled connections idle;
				// release them so the servers shut down at once.
				defer b.Close()
				defer http.DefaultTransport.(*http.Transport).CloseIdleConnections()
			}
			if err != nil {
				t.Fatal(err)
			}
			if !(s > 0) || math.IsInf(s, 0) {
				t.Fatalf("set-up took %v s, want a positive finite time", s)
			}
		})
	}
}

// TestForcedVerificationFailure damages the warehouse after the run and
// expects the verification to catch it in correct and failed_share.
func TestForcedVerificationFailure(t *testing.T) {
	out := tinyRun(t, workloads[0], false, func(b *core.Benchmark) {
		b.Scenario().DB(schema.SysDWH).MustTable("Orders").Truncate()
	})
	if out.Correct {
		t.Fatal("damaged warehouse passed verification")
	}
	if out.Failed < 1 || out.Metrics["failed_share"].Value <= 0 {
		t.Fatalf("failed=%d failed_share=%v, want both raised", out.Failed, out.Metrics["failed_share"].Value)
	}
}

// exactCounters are the per-layer counters that depend only on the
// configuration and seed, never on timing.
func exactCounters() []string {
	names := []string{
		"driver.events", "engine.instances", "ws.queries", "ws.updates",
		"relational.source_rows", "relational.dwh_orders",
		"checkpoint.commits", "checkpoint.snapshot_bytes", "wal.bytes",
	}
	for _, d := range perLayer {
		if strings.HasPrefix(d.Name, "mtm.") && strings.HasSuffix(d.Name, "_n") {
			names = append(names, d.Name)
		}
	}
	return names
}

// allocTolerance bounds the run-to-run difference of the allocation
// counters. They count every allocation in the process, including the
// runtime's and the HTTP servers' own and the driver's generation of the
// next period, which may finish on either side of a period end; so they
// repeat only closely: by under 0.1 % at d=4, about 1 % at d=0.25 over
// two warm periods, and up to 7 % at d=0.05 over one.
const allocTolerance = 0.03

// TestCountersRepeat runs two identical traced runs per shape at d=0.25
// for three periods and expects the exact counters to match exactly and
// the allocation counters to match within allocTolerance.
func TestCountersRepeat(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			a := runShrunk(t, w, 0.25, 3, true, nil)
			b := runShrunk(t, w, 0.25, 3, true, nil)
			for _, n := range exactCounters() {
				if av, bv := a.Metrics[n].Value, b.Metrics[n].Value; av != bv {
					t.Errorf("%s: %v then %v, want equal", n, av, bv)
				}
			}
			for p, n := range a.Instances {
				if b.Instances[p] != n {
					t.Errorf("instances of %s: %d then %d", p, n, b.Instances[p])
				}
			}
			for _, n := range []string{"go.allocs_per_period", "go.alloc_mb_per_period"} {
				av, bv := a.Metrics[n].Value, b.Metrics[n].Value
				t.Logf("%s: %v then %v", n, av, bv)
				if math.Abs(av-bv) > allocTolerance*math.Max(av, bv) {
					t.Errorf("%s: %v then %v, beyond %.0f %%", n, av, bv, 100*allocTolerance)
				}
			}
		})
	}
}

// benchmarkFile is BENCHMARK.json as far as the harness checks it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []Def `json:"per_layer"`
}

// layersFile is perfbench/layers.json: the held-out seed and which
// end-to-end metric each layer metric should move, on which workload.
type layersFile struct {
	DefaultSeed uint64 `json:"default_seed"`
	HeldOutSeed uint64 `json:"held_out_seed"`
	Mapping     []struct {
		Layer string   `json:"layer"`
		Moves string   `json:"moves"`
		On    []string `json:"on"`
	} `json:"mapping"`
}

// TestBenchmarkFileMatchesHarness keeps BENCHMARK.json and layers.json in
// step with the metrics and workloads the harness emits.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	var bf benchmarkFile
	readJSON(t, "../BENCHMARK.json", &bf)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, harness has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: file %q, harness %q (or their why differs)", i, bf.Workloads[i].Name, w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, harness emits %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		f := bf.EndToEnd[i]
		if f.Name != d.Name || f.Unit != d.Unit || f.Better != d.Better {
			t.Errorf("end-to-end %d: file %+v, harness %+v", i, f, d)
		}
		if f.Bound <= 0 || f.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", f.Name, f.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, harness emits %d", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if bf.PerLayer[i] != d {
			t.Errorf("per-layer %d: file %+v, harness %+v", i, bf.PerLayer[i], d)
		}
	}

	var lf layersFile
	readJSON(t, "layers.json", &lf)
	if lf.HeldOutSeed == lf.DefaultSeed {
		t.Error("held-out seed equals the default seed")
	}
	known := make(map[string]bool)
	for _, d := range append(append([]Def(nil), endToEnd...), perLayer...) {
		known[d.Name] = true
	}
	wl := make(map[string]bool)
	for _, w := range workloads {
		wl[w.Name] = true
	}
	for _, m := range lf.Mapping {
		if m.Moves != "" && !known[m.Moves] {
			t.Errorf("layers.json: %s moves unknown metric %q", m.Layer, m.Moves)
		}
		for _, w := range m.On {
			if !wl[w] {
				t.Errorf("layers.json: %s names unknown workload %q", m.Layer, w)
			}
		}
	}
	for _, d := range perLayer {
		found := false
		for _, m := range lf.Mapping {
			if m.Layer == d.Name || strings.HasSuffix(m.Layer, "*") && strings.HasPrefix(d.Name, strings.TrimSuffix(m.Layer, "*")) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("layers.json has no entry for %s", d.Name)
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
