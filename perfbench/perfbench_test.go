package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// smokeSize shrinks every population and fixture so each workload runs
// in about a second.
var smokeSize = sizes{
	principals:   1_000,
	zipfS:        1.5,
	bulkEvery:    10,
	bulkSize:     32,
	inScope:      0.8,
	stream:       4_096,
	warmup:       500,
	catalogue:    200,
	commitRate:   64,
	probeCommits: 80,
	cells:        4,
	cellNodes:    8,
	graphs:       2,
	setups:       2,
	setupSeconds: 0,
	replayOps:    500,
	replayCommit: 70,
	localRuns:    2,
}

// TestWorkloadsSmoke runs every workload at tiny size, untraced, and
// checks that the oracle passed and every end-to-end metric of the
// workload was printed.
func TestWorkloadsSmoke(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl, func(t *testing.T) {
			res, report, err := run(config{workload: wl, seed: 7, seconds: 0.5, size: smokeSize})
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, report, e2eMetrics(wl))
			keys := []string{"machine", "drift_pct", "op_samples"}
			if wl != wlDispatch {
				keys = append(keys, "commit_samples")
			}
			for _, key := range keys {
				if _, ok := report[key]; !ok {
					t.Errorf("report lacks %s", key)
				}
			}
		})
	}
}

// TestTracedSmoke runs the traced mode once: it measures every layer.
func TestTracedSmoke(t *testing.T) {
	res, report, err := run(config{workload: wlDispatch, seed: 7, seconds: 0.6, trace: true, size: smokeSize})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, report, layerUnits)
}

func checkResult(t *testing.T, res *result, report map[string]any, units map[string]string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("oracle failed: attempted %d, failed %d, failures %v", res.Attempted, res.Failed, report["failures"])
	}
	for name, unit := range units {
		m, ok := res.Metrics[name]
		if !ok || m.Unit != unit {
			t.Errorf("metric %s: got %+v, want unit %s", name, m, unit)
		}
	}
	if len(res.Metrics) != len(units) {
		t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(units))
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// metrics the program prints, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if !slices.Contains(workloads, w.Name) {
			t.Errorf("BENCHMARK.json names workload %s, which the program does not run", w.Name)
		}
	}
	for _, set := range []struct {
		declared []struct{ Name, Unit string }
		units    map[string]string
	}{{b.EndToEnd, e2eUnits}, {b.PerLayer, layerUnits}} {
		if len(set.declared) != len(set.units) {
			t.Errorf("declared %d metrics, program prints %d", len(set.declared), len(set.units))
		}
		for _, m := range set.declared {
			if set.units[m.Name] != m.Unit {
				t.Errorf("metric %s: declared unit %q, printed %q", m.Name, m.Unit, set.units[m.Name])
			}
		}
	}
}
