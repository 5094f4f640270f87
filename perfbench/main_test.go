package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the program must agree
// with.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	for _, w := range f.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not in the program", w.Name)
		}
	}
	check := func(kind string, want []struct{ Name, Unit string }, got []metricDef) {
		if len(want) != len(got) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(want), len(got))
		}
		for i, w := range want {
			if (metricDef{w.Name, w.Unit}) != got[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, w.Name, w.Unit, got[i].name, got[i].unit)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
}

func tinyOptions(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload, seed: 5, window: 200 * time.Millisecond, trace: trace,
		spansDir: t.TempDir(), tiny: true,
	}
}

// TestEveryWorkloadTiny runs every workload at tiny size, untraced and
// traced, and checks that the result passes its checks and prints every
// metric of its kind with its unit.
func TestEveryWorkloadTiny(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			var log bytes.Buffer
			o := tinyOptions(t, name, trace)
			res, err := run(o, &log)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", name, trace, err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					name, trace, res.Correct, res.Attempted, res.Failed, log.String())
			}
			table := endToEnd
			if trace {
				table = perLayer
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Metrics) != len(table) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(table))
			}
			for _, m := range table {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, m.name, got, m.unit)
				}
				if !strings.Contains(string(line), `"`+m.name+`":{"value":`) {
					t.Errorf("%s trace=%v: %s missing from the result line", name, trace, m.name)
				}
				if !trace && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, got.Value)
				}
			}
			if trace {
				spans, err := os.ReadFile(filepath.Join(o.spansDir, name+"-seed5.jsonl"))
				if err != nil || !bytes.Contains(spans, []byte(`"workload":"`+name+`"`)) {
					t.Errorf("%s: spans file: %v", name, err)
				}
			}
		}
	}
}

// TestWrongExpectationFails corrupts each workload's expected output and
// requires the run to report the failed check.
func TestWrongExpectationFails(t *testing.T) {
	for _, name := range workloadNames() {
		o := tinyOptions(t, name, false)
		o.wrongExpect = true
		var log bytes.Buffer
		res, err := run(o, &log)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: a wrong expectation passed: correct=%v failed=%d\n%s", name, res.Correct, res.Failed, log.String())
		}
	}
}
