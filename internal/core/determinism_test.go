package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/noc"
	"repro/internal/npb"
	"repro/internal/runner"
	"repro/internal/tech"
	"repro/internal/topology"
)

// TestExploreSerialParallelIdentical: the concurrent engine must return
// bit-identical ExplorationResults to the serial path for every worker
// count — the core determinism contract of the runner rewiring. Run with
// -race to also catch data races between jobs.
func TestExploreSerialParallelIdentical(t *testing.T) {
	o := DefaultOptions()
	pts := DefaultDesignSpace()
	workerCounts := []int{2, 4, 8}
	if testing.Short() {
		// A slice of the space across fewer pool sizes keeps the check
		// meaningful at a fraction of the cost.
		pts = pts[:6]
		workerCounts = []int{3}
	}
	serial, err := ExploreContext(context.Background(), pts, o, runner.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range workerCounts {
		par, err := ExploreContext(context.Background(), pts, o, runner.Config{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(par), len(serial))
		}
		for i := range serial {
			if !reflect.DeepEqual(serial[i], par[i]) {
				t.Errorf("workers=%d: result %d (%v) differs:\nserial:   %+v\nparallel: %+v",
					workers, i, pts[i], serial[i], par[i])
			}
		}
	}
}

// TestSweepsSerialParallelIdentical enforces the repository's determinism
// contract on every sweep entry point: each fixture's output is
// bit-identical for Workers 1 and Workers 7 (run under -race by make
// race). The energy row includes the Pareto marking; the fault row covers
// the fault-randomness seed chain across both geometries and both device
// variants; task-graph dependency releases are simulation events, not
// wall-clock ones, so worker interleaving cannot reach them; the
// telemetry row compares stats, the full span set and every retained
// probe window (telemetryKey).
func TestSweepsSerialParallelIdentical(t *testing.T) {
	ctx := context.Background()
	mesh := []topology.Kind{topology.Mesh}
	cases := []struct {
		name string
		run  func(t *testing.T, pool runner.Config) (any, error)
	}{
		{"Pattern", func(t *testing.T, pool runner.Config) (any, error) {
			points, pats, sc, o := sweepFixture(t)
			return PatternSweep(ctx, points, pats, sc, o, pool)
		}},
		{"TopologyPattern", func(t *testing.T, pool runner.Config) (any, error) {
			kinds, pats, sc, o := kindSweepFixture(t)
			return TopologyPatternSweep(ctx, kinds, pats, sc, o, pool)
		}},
		{"ExploreKinds", func(t *testing.T, pool runner.Config) (any, error) {
			o := DefaultOptions()
			o.Topology.Width, o.Topology.Height = 6, 6
			points := []DesignPoint{{Base: tech.Electronic, Express: tech.Electronic, Hops: 0}}
			return ExploreKinds(ctx, topology.Kinds(), points, o, pool)
		}},
		{"Energy", func(t *testing.T, pool runner.Config) (any, error) {
			points, pats, sc, o := sweepFixture(t)
			return EnergySweep(ctx, mesh, points, pats, sc, o, pool)
		}},
		{"Fault", func(t *testing.T, pool runner.Config) (any, error) {
			points, variants, pats, sc, o := faultFixture(t)
			return FaultSweep(ctx, mesh, points, variants, pats, sc, o, pool)
		}},
		{"TaskGraph", func(t *testing.T, pool runner.Config) (any, error) {
			points, gens, sc, o := taskGraphFixture(t)
			return TaskGraphSweep(ctx, points, gens, sc, o, pool)
		}},
		{"Telemetry", func(t *testing.T, pool runner.Config) (any, error) {
			points, pats, sc, o := telemetryFixture(t)
			res, err := TelemetrySweep(ctx, points, pats, sc, o, pool)
			if err != nil {
				return nil, err
			}
			return telemetryKey(t, res), nil
		}},
		{"Trace", func(t *testing.T, pool runner.Config) (any, error) {
			k := npb.DefaultConfig(npb.LU)
			k.Iterations = 1
			k.Scale = 1.0 / 64
			var jobs []TraceJob
			for _, hops := range []int{0, 3, 5} {
				jobs = append(jobs, TraceJob{Kernel: k, Point: DesignPoint{
					Base: tech.Electronic, Express: tech.HyPPI, Hops: hops}})
			}
			return RunTraceExperiments(ctx, jobs, DefaultOptions(), noc.DefaultConfig(), pool)
		}},
		{"EvalCells", func(t *testing.T, pool runner.Config) (any, error) {
			return EvalCells(ctx, batchCells(t), batchSweepConfig(), DefaultOptions(), pool)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			serial, err := c.run(t, runner.Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := c.run(t, runner.Config{Workers: 7})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Fatalf("Workers 1 and 7 diverge:\nserial:   %+v\nparallel: %+v", serial, parallel)
			}
		})
	}
}

// TestTraceExperimentsPooledMatchesFresh: the batch path recycles
// simulators through a noc.SimPool while the single-experiment path builds
// fresh ones — results must be bit-identical, per-job and across repeated
// batches (warm network cache, warm pools). This is the core-layer
// enforcement of the Sim.Reset reuse contract; run under -race via
// make race.
func TestTraceExperimentsPooledMatchesFresh(t *testing.T) {
	o := DefaultOptions()
	k := npb.DefaultConfig(npb.LU)
	k.Iterations = 1
	k.Scale = 1.0 / 64
	var jobs []TraceJob
	// Repeating design points makes the pool actually reuse simulators
	// (a kernel ladder on a fixed point is the hyppi-sim shape).
	for _, hops := range []int{0, 3, 0, 3} {
		jobs = append(jobs, TraceJob{Kernel: k, Point: DesignPoint{
			Base: tech.Electronic, Express: tech.HyPPI, Hops: hops}})
	}
	fresh := make([]TraceResult, len(jobs))
	for i, j := range jobs {
		r, err := RunTraceExperiment(j.Kernel, j.Point, o, noc.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		fresh[i] = r
	}
	for round := 0; round < 2; round++ {
		for _, workers := range []int{1, 3} {
			pooled, err := RunTraceExperiments(context.Background(), jobs, o,
				noc.DefaultConfig(), runner.Config{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for i := range fresh {
				if !reflect.DeepEqual(fresh[i], pooled[i]) {
					t.Errorf("round %d workers=%d job %d (%v): pooled result differs from fresh",
						round, workers, i, jobs[i].Point)
				}
			}
		}
	}
}

// TestExploreRepeatedCallsIdentical: the process-wide network, table and
// traffic caches must not let one sweep's results leak into the next —
// repeated explorations are bit-identical.
func TestExploreRepeatedCallsIdentical(t *testing.T) {
	o := DefaultOptions()
	pts := DefaultDesignSpace()
	if testing.Short() {
		pts = pts[:4]
	}
	first, err := Explore(pts, o)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Explore(pts, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("repeated Explore calls diverge (cache contamination)")
	}
}

// TestScopedCacheMatchesDefault: Options.Cache with a private cache (and
// a nil NetworkCache building uncached) must be bit-identical to the
// process-wide default cache.
func TestScopedCacheMatchesDefault(t *testing.T) {
	o := DefaultOptions()
	pts := DefaultDesignSpace()[:4]
	def, err := Explore(pts, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Cache = NewNetworkCache()
	scoped, err := Explore(pts, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def, scoped) {
		t.Error("scoped-cache exploration diverges from default cache")
	}
	var nilCache *NetworkCache
	net, tab, err := nilCache.Get(o.Topology, o.Policy)
	if err != nil || net == nil || tab == nil {
		t.Fatalf("nil cache must build uncached: %v", err)
	}
	if _, err := nilCache.Soteriou(net, o.Traffic); err != nil {
		t.Fatalf("nil cache Soteriou: %v", err)
	}
}

// TestExploreCancellationPropagates: a cancelled context aborts the sweep
// with context.Canceled instead of returning partial results.
func TestExploreCancellationPropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ExploreContext(ctx, DefaultDesignSpace(), DefaultOptions(), runner.Config{Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("cancelled sweep must not return results")
	}
}

// TestExploreParallelErrorMatchesSerial: an invalid design point fails the
// parallel sweep with the same per-point error the serial path reports.
func TestExploreParallelErrorMatchesSerial(t *testing.T) {
	o := DefaultOptions()
	pts := DefaultDesignSpace()
	if testing.Short() {
		pts = pts[:2]
	}
	pts = append(pts, DesignPoint{Base: tech.Electronic, Express: tech.Electronic, Hops: 99})
	_, serialErr := ExploreContext(context.Background(), pts, o, runner.Config{Workers: 1})
	_, parErr := ExploreContext(context.Background(), pts, o, runner.Config{Workers: 8})
	if serialErr == nil || parErr == nil {
		t.Fatalf("both paths must fail: serial=%v parallel=%v", serialErr, parErr)
	}
	if serialErr.Error() != parErr.Error() {
		t.Errorf("error mismatch:\nserial:   %v\nparallel: %v", serialErr, parErr)
	}
}
