package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestQuickSelfCheck runs every workload at tiny sizes, untraced and
// traced, and checks that every metric BENCHMARK.json names is printed
// with its unit and that every output check passes.
func TestQuickSelfCheck(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, wl := range b.Workload {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl.Name+"/trace"+trace, func(t *testing.T) {
				dir := t.TempDir()
				var out bytes.Buffer
				code := run([]string{"-workload", wl.Name, "-quick", "-seconds", "0.2", "-trace", trace,
					"-spans-dir", dir}, &out, io.Discard)
				if code != 0 {
					t.Fatalf("exit code %d", code)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct           *bool
					Attempted, Failed *int
					Metrics           map[string]struct {
						Value *float64
						Unit  string
					}
				}
				last := lines[len(lines)-1]
				var keys map[string]json.RawMessage
				if err := json.Unmarshal([]byte(last), &keys); err != nil || len(keys) != 4 {
					t.Fatalf("last line is not the four-key result: %s", last)
				}
				if err := json.Unmarshal([]byte(last), &res); err != nil {
					t.Fatal(err)
				}
				if res.Correct == nil || !*res.Correct || res.Failed == nil || *res.Failed != 0 ||
					res.Attempted == nil || *res.Attempted < 1 {
					t.Fatalf("checks did not pass: %s", last)
				}
				want := b.EndToEnd
				if trace == "1" {
					want = b.PerLayer
					if _, err := os.Stat(filepath.Join(dir, "perfbench-spans-"+wl.Name+"-seed1.json")); err != nil {
						t.Errorf("no span file: %v", err)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok || got.Value == nil:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					case trace == "0" && !(*got.Value > 0):
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, *got.Value)
					}
				}
			})
		}
	}
}

// TestMetricTablesMatchBenchmarkFile keeps the program's metric tables and
// BENCHMARK.json in step.
func TestMetricTablesMatchBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	check := func(kind string, defs []metricDef, file []struct{ Name, Unit string }) {
		if len(defs) != len(file) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(defs), len(file))
		}
		for i := range defs {
			if defs[i].name != file[i].Name || defs[i].unit != file[i].Unit {
				t.Errorf("%s[%d]: program %v, BENCHMARK.json %v", kind, i, defs[i], file[i])
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
	if len(b.Workload) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(b.Workload), len(workloadNames))
	}
	for i, w := range b.Workload {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
}

func TestBadArgumentsFail(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "scale-64", "-trace", "2"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit code %d, stdout %q", args, code, out.String())
		}
	}
}
