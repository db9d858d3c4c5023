package core_test

import (
	"bytes"
	"context"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dsent"
	"repro/internal/noc"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/taskgraph"
	"repro/internal/tech"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TestGoldenSweeps pins the rendered output of every exported sweep on a
// tiny 4×4 fixture as CSV/table files under testdata/sweeps, so a
// refactor of the sweep plumbing cannot silently move a number. Each
// fixture runs at Workers 1 and 3 and both renderings must match the
// file. Regenerate deliberately with make golden (-update).
//
// This is an external test package because report imports core.
func TestGoldenSweeps(t *testing.T) {
	ctx := context.Background()
	o := core.DefaultOptions()
	o.Topology.Width, o.Topology.Height = 4, 4
	plain := core.DesignPoint{Base: tech.Electronic, Express: tech.Electronic, Hops: 0}
	points := []core.DesignPoint{plain, {Base: tech.Electronic, Express: tech.HyPPI, Hops: 3}}
	pats := goldenPatterns(t, "uniform,tornado,bitcomp")
	sc := core.PatternSweepConfig{
		Rates:    []float64{0.05, 0.2, 0.5},
		Workload: noc.BernoulliWorkload{SizeFlits: 1, Cycles: 400, Seed: 5},
		NoC:      noc.DefaultConfig(),
	}
	sc.NoC.MaxCycles = 20000

	cases := []struct {
		file string
		run  func(pool runner.Config, w io.Writer) error
	}{
		{"pattern.csv", func(pool runner.Config, w io.Writer) error {
			res, err := core.PatternSweep(ctx, points, pats, sc, o, pool)
			if err != nil {
				return err
			}
			return report.WritePatternSweep(w, res)
		}},
		{"topology_pattern.csv", func(pool runner.Config, w io.Writer) error {
			res, err := core.TopologyPatternSweep(ctx, topology.Kinds(), pats[:2], sc, o, pool)
			if err != nil {
				return err
			}
			return report.WritePatternSweep(w, res)
		}},
		{"energy_points.csv", func(pool runner.Config, w io.Writer) error {
			res, err := core.EnergySweep(ctx, []topology.Kind{topology.Mesh}, points, pats, sc, o, pool)
			if err != nil {
				return err
			}
			return report.WriteEnergySweep(w, res)
		}},
		{"energy_kinds.csv", func(pool runner.Config, w io.Writer) error {
			res, err := core.EnergySweep(ctx, []topology.Kind{topology.Mesh, topology.Torus, topology.FBFly},
				[]core.DesignPoint{plain}, pats[:2], sc, o, pool)
			if err != nil {
				return err
			}
			return report.WriteEnergySweep(w, res)
		}},
		{"fault.csv", func(pool runner.Config, w io.Writer) error {
			fc := core.DefaultFaultSweep()
			fc.Rates = []float64{0, 0.1, 0.3}
			fc.Epochs = 3
			fc.Workload.Cycles = 300
			fc.NoC.MaxCycles = 20000
			res, err := core.FaultSweep(ctx, []topology.Kind{topology.Mesh}, points,
				[]string{dsent.VariantBaseline, dsent.VariantMODetector}, pats[:1], fc, o, pool)
			if err != nil {
				return err
			}
			return report.WriteFaultSweep(w, res)
		}},
		{"taskgraph.csv", func(pool runner.Config, w io.Writer) error {
			res, err := core.TaskGraphSweep(ctx, points, goldenGraphs(t), goldenTaskGraphConfig(), o, pool)
			if err != nil {
				return err
			}
			return report.WriteTaskGraphSweep(w, res)
		}},
		{"topology_taskgraph.csv", func(pool runner.Config, w io.Writer) error {
			res, err := core.TopologyTaskGraphSweep(ctx, []topology.Kind{topology.Mesh, topology.Torus},
				goldenGraphs(t), goldenTaskGraphConfig(), o, pool)
			if err != nil {
				return err
			}
			return report.WriteTaskGraphSweep(w, res)
		}},
		{"telemetry.csv", func(pool runner.Config, w io.Writer) error {
			tc := core.TelemetrySweepConfig{
				Rate:      0.1,
				Workload:  sc.Workload,
				NoC:       sc.NoC,
				Telemetry: telemetry.Config{SampleRate: 0.2, Seed: 31, ProbeWindowClks: 50},
			}
			res, err := core.TelemetrySweep(ctx, points, pats[:2], tc, o, pool)
			if err != nil {
				return err
			}
			return report.WriteTelemetrySweep(w, res)
		}},
		{"explore_kinds.txt", func(pool runner.Config, w io.Writer) error {
			res, err := core.ExploreKinds(ctx, topology.Kinds(), []core.DesignPoint{plain,
				{Base: tech.HyPPI, Express: tech.HyPPI, Hops: 0}}, o, pool)
			if err != nil {
				return err
			}
			_, err = io.WriteString(w, report.KindComparisonTable(res))
			return err
		}},
	}
	update := flag.Lookup("update").Value.(flag.Getter).Get().(bool)
	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			var serial, parallel bytes.Buffer
			if err := c.run(runner.Config{Workers: 1}, &serial); err != nil {
				t.Fatal(err)
			}
			if err := c.run(runner.Config{Workers: 3}, &parallel); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
				t.Fatal("Workers 1 and 3 render differently")
			}
			path := filepath.Join("testdata", "sweeps", c.file)
			if update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, serial.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with make golden)", err)
			}
			if !bytes.Equal(serial.Bytes(), want) {
				t.Errorf("%s drifted from the golden file:\ngot:\n%s\nwant:\n%s", path, serial.Bytes(), want)
			}
		})
	}
}

func goldenPatterns(t *testing.T, names string) []traffic.Pattern {
	t.Helper()
	pats, err := traffic.ParsePatterns(names)
	if err != nil {
		t.Fatal(err)
	}
	return pats
}

func goldenGraphs(t *testing.T) []taskgraph.Generator {
	t.Helper()
	gens, err := taskgraph.ParseGenerators("reduce,ring-allreduce,pipeline")
	if err != nil {
		t.Fatal(err)
	}
	return gens
}

func goldenTaskGraphConfig() core.TaskGraphSweepConfig {
	sc := core.DefaultTaskGraphSweep()
	sc.Gen = taskgraph.GenConfig{SizeFlits: 8, ComputeClks: 8, Microbatches: 3}
	return sc
}
