// Command perfbench is the repository's benchmark: it times four
// workloads end to end through the program's public packages, checks
// every simulated output, and in a separate traced run times each layer.
// Build and run it from the repository root with perfbench/run.sh; see
// README.md for the workloads and metrics.
package main

import (
	"embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// defaultSeed is the seed whose simulated outputs are stored in testdata.
const defaultSeed = 1

// setupRepeats is how many times each pass sets up; setup_s is the median
// of every set-up of a run, and the pass uses the last one.
const setupRepeats = 9

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"}, {"wall_s", "s"}, {"flit_hops_per_s", "1/s"},
	{"alloc_mb", "MB"}, {"live_heap_mb", "MB"},
	{"qps", "1/s"}, {"latency_p50_ms", "ms"}, {"latency_p99_ms", "ms"},
}

var perLayer = []metricDef{
	{"noc.run_s", "s"}, {"noc.run_ns_per_flit_hop", "ns"}, {"noc.flit_hops", "count"},
	{"noc.sim_cycles", "cycles"}, {"noc.saturated_runs", "count"},
	{"noc.new_s", "s"}, {"noc.reset_s", "s"}, {"noc.inject_s", "s"}, {"noc.inject_alloc_mb", "MB"},
	{"npb.generate_s", "s"}, {"npb.alloc_mb", "MB"}, {"npb.events", "count"},
	{"trace.packetize_s", "s"}, {"trace.alloc_mb", "MB"}, {"trace.packets", "count"},
	{"traffic.matrix_s", "s"}, {"traffic.generate_s", "s"}, {"traffic.alloc_mb", "MB"}, {"traffic.packets", "count"},
	{"topology.build_s", "s"}, {"routing.build_s", "s"},
	{"taskgraph.generate_s", "s"}, {"taskgraph.bound_s", "s"}, {"taskgraph.messages", "count"}, {"taskgraph.alloc_mb", "MB"},
	{"energy.model_s", "s"}, {"energy.price_s", "s"}, {"core.explore_s", "s"}, {"report.write_s", "s"},
	{"serve.decode_us_p50", "us"}, {"serve.encode_us_p50", "us"}, {"serve.repeat_ms_p50", "ms"},
	{"serve.first_ms_p50", "ms"}, {"serve.first_ms_p99", "ms"}, {"serve.hit_rate", "ratio"},
	{"serve.evaluations", "count"}, {"serve.batches", "count"}, {"serve.mean_batch", "count"}, {"serve.rejected", "count"},
	{"bench.trace_overhead_s", "s"},
}

var workloadNames = []string{"paper-repro", "scale-64", "taskgraph-closedloop", "serve-mixed"}

func newWorkload(name string, seed int64, quick bool) (workload, error) {
	switch name {
	case "paper-repro":
		return newPaperRepro(seed, quick), nil
	case "scale-64":
		return newScale64(seed, quick)
	case "taskgraph-closedloop":
		return newTaskgraph(seed, quick)
	case "serve-mixed":
		return newServeMixed(seed, quick)
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
}

//go:embed testdata/*.json
var expectedFS embed.FS

func readExpected(name string, v any) {
	data, err := expectedFS.ReadFile("testdata/expected-" + name + ".json")
	if err == nil {
		err = json.Unmarshal(data, v)
	}
	if err != nil {
		panic(fmt.Sprintf("embedded expectations for %s: %v", name, err)) // built into the binary
	}
}

// expectedFor returns the stored outputs of a simulation workload, which
// apply only at the default seed and full size.
func expectedFor(name string, seed int64, quick bool) []cell {
	if quick || seed != defaultSeed {
		return nil
	}
	var cells []cell
	readExpected(name, &cells)
	return cells
}

// expectedServe returns the stored reply of every distinct serve-mixed
// query; the working set is the same at every seed.
func expectedServe() map[string]string {
	m := map[string]string{}
	readExpected("serve-mixed", &m)
	return m
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the arguments, measures, and prints the manifest and then
// the result as the last line of stdout. It returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-repro, scale-64, taskgraph-closedloop or serve-mixed")
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 30, "measuring time; passes repeat while the next one fits")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	quick := fs.Bool("quick", false, "tiny sizes for a self-check in seconds; no stored outputs apply")
	spansDir := fs.String("spans-dir", "", "directory for the traced run's span file (none when empty)")
	writeExpected := fs.String("write-expected", "", "write the default seed's outputs of -workload into this directory and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace takes 0 or 1")
		return 2
	}

	w, err := newWorkload(*name, *seed, *quick)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *writeExpected != "" {
		if *seed != defaultSeed || *quick {
			fmt.Fprintln(stderr, "perfbench: -write-expected stores the default seed at full size")
			return 2
		}
		if err := storeExpected(w, *name, *writeExpected); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	res, err := measure(w, time.Duration(*seconds*float64(time.Second)), *trace == 1, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	manifest := map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *trace, "quick": *quick,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "go_version": runtime.Version(),
		"vcs_revision": vcsRevision(), "setup_repeats": setupRepeats,
		"passes": res.passes, "traced_passes": res.tracedPasses, "params": w.params(),
	}
	if res.tr != nil && *spansDir != "" {
		path := filepath.Join(*spansDir, fmt.Sprintf("perfbench-spans-%s-seed%d.json", *name, *seed))
		if err := res.tr.write(path, manifest); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		manifest["span_file"] = path
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	metrics := map[string]any{}
	for _, d := range defs {
		metrics[d.name] = map[string]any{"value": res.metrics[d.name], "unit": d.unit}
	}
	out := json.NewEncoder(stdout)
	if err := out.Encode(map[string]any{"manifest": manifest}); err != nil {
		return 1
	}
	if err := out.Encode(map[string]any{
		"correct": res.failed == 0, "attempted": res.attempted, "failed": res.failed, "metrics": metrics,
	}); err != nil {
		return 1
	}
	return 0
}

// vcsRevision is the commit the binary was built from, when the build
// saw version control.
func vcsRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, modified := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				modified = "+modified"
			}
		}
	}
	return rev + modified
}

// storeExpected runs one pass at the default seed and writes its outputs
// as the stored expectations; serve-mixed stores every distinct query
// answered alone.
func storeExpected(w workload, name, dir string) error {
	var v any
	if sm, ok := w.(*serveMixed); ok {
		m, err := sm.answerAlone()
		if err != nil {
			return err
		}
		v = m
	} else {
		st, err := w.setup(nil, -1)
		if err != nil {
			return err
		}
		out, err := st.run(&lapper{})
		st.close()
		if err != nil {
			return err
		}
		v = out.cells
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "expected-"+name+".json"), append(data, '\n'), 0o644)
}
