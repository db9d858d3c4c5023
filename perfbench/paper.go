package main

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/noc"
	"repro/internal/npb"
	"repro/internal/report"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/trace"
)

// paperRepro is the paper's evaluation: the Fig. 5 design space through
// the analytic model, then the Fig. 6 / Table V NPB trace replays on the
// cycle-accurate simulator, then the CSV writers.
type paperRepro struct {
	seed   int64
	want   []cell // stored outputs; nil unless the default seed at full size
	points []core.DesignPoint
	jobs   []core.TraceJob
	grid   int
}

func newPaperRepro(seed int64, quick bool) *paperRepro {
	w := &paperRepro{seed: seed, want: expectedFor("paper-repro", seed, quick),
		points: core.DefaultDesignSpace(), grid: 16}
	scale, kernels := 1.0/64, npb.Kernels
	if quick {
		w.points, scale, kernels = w.points[:4], 1.0/1024, []npb.Kernel{npb.CG}
	}
	add := func(k npb.Kernel, express tech.Technology, hops int) {
		cfg := npb.DefaultConfig(k)
		cfg.GridW, cfg.GridH = w.grid, w.grid
		cfg.Scale, cfg.Iterations, cfg.Seed = scale, 1, seed
		w.jobs = append(w.jobs, core.TraceJob{Kernel: cfg,
			Point: core.DesignPoint{Base: tech.Electronic, Express: express, Hops: hops}})
	}
	for _, k := range kernels {
		add(k, tech.Electronic, 0)
		add(k, tech.HyPPI, 3)
		add(k, tech.HyPPI, 15)
	}
	if !quick {
		add(npb.FT, tech.Electronic, 3)
		add(npb.FT, tech.Photonic, 3)
	}
	return w
}

func (w *paperRepro) params() map[string]any {
	jobs := make([]string, len(w.jobs))
	for i, j := range w.jobs {
		jobs[i] = fmt.Sprintf("%v on %v", j.Kernel.Kernel, j.Point)
	}
	k := w.jobs[0].Kernel
	return map[string]any{
		"design_points": len(w.points), "trace_jobs": jobs, "trace_grid": w.grid,
		"npb_scale": k.Scale, "npb_iterations": k.Iterations, "npb_seed": k.Seed,
		"noc": noc.DefaultConfig(), "workers": 1,
	}
}

type paperState struct {
	w         *paperRepro
	o, oTrace core.Options
	nets      []*topology.Network // per trace job, for the traced pipeline
	tabs      []*routing.Table
	// The last pass's results, reachable when live_heap_mb is read.
	results    []core.TraceResult
	exploreOut []core.ExplorationResult
}

// setup resolves every design point through a fresh cache and builds the
// energy model of each trace network. The pass prices runs with
// core.PriceRun; the models are built so that energy.NewModel, which every
// priced serving evaluation pays, counts in setup_s and energy.model_s.
func (w *paperRepro) setup(tr *tracer, parent int) (state, error) {
	s := &paperState{w: w, o: core.DefaultOptions()}
	s.o.Cache = core.NewNetworkCache()
	for _, p := range w.points {
		if _, _, err := s.o.NetworkAndTable(p); err != nil {
			return nil, err
		}
	}
	s.oTrace = s.o
	s.oTrace.Topology.Width, s.oTrace.Topology.Height = w.grid, w.grid
	// Jobs on one design point share its network, as they share the
	// cached one in core, so the traced pipeline reuses simulators the
	// same way.
	type built struct {
		net *topology.Network
		tab *routing.Table
	}
	byPoint := map[core.DesignPoint]built{}
	for _, j := range w.jobs {
		if b, ok := byPoint[j.Point]; ok {
			s.nets, s.tabs = append(s.nets, b.net), append(s.tabs, b.tab)
			continue
		}
		net, tab, err := setupNet(tr, parent, s.oTrace, j.Point)
		if err != nil {
			return nil, err
		}
		byPoint[j.Point] = built{net, tab}
		s.nets, s.tabs = append(s.nets, net), append(s.tabs, tab)
		build := func() error {
			_, err := energy.NewModel(net, s.o.DSENT)
			return err
		}
		if tr != nil {
			err = tr.call("energy.model", parent, "", build)
		} else {
			err = build()
		}
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *paperState) close() {}

func (s *paperState) run(l *lapper) (passOutput, error) {
	ctx := context.Background()
	explore, err := core.ExploreContext(ctx, s.w.points, s.o, runner.Config{Workers: 1})
	if err != nil {
		return passOutput{}, err
	}
	l.start()
	results, err := core.RunTraceExperiments(ctx, s.w.jobs, s.oTrace, noc.DefaultConfig(),
		runner.Config{Workers: 1, Progress: l.lap})
	if err != nil {
		return passOutput{}, err
	}
	if err := writeReports(explore, results); err != nil {
		return passOutput{}, err
	}
	s.results, s.exploreOut = results, explore
	return passOutput{cells: paperCells(explore, results), latMs: l.ms}, nil
}

func writeReports(explore []core.ExplorationResult, results []core.TraceResult) error {
	if err := report.WriteExploration(io.Discard, explore); err != nil {
		return err
	}
	return report.WriteTraceResults(io.Discard, results)
}

func paperCells(explore []core.ExplorationResult, results []core.TraceResult) []cell {
	var cells []cell
	for _, r := range explore {
		cells = append(cells, cell{Key: "explore " + r.Point.String(), Vals: map[string]float64{"clear": r.CLEAR}})
	}
	for _, r := range results {
		cells = append(cells, cell{Key: fmt.Sprintf("%v on %v", r.Kernel, r.Point), Vals: map[string]float64{
			"avg_latency_clks": r.AvgLatencyClks,
			"cycles":           float64(r.Stats.Cycles),
			"dynamic_energy_j": r.DynamicEnergyJ,
		}})
	}
	return cells
}

// traced replays the pass through each layer's public functions in the
// order core.ExploreContext, core.RunTraceExperiments and the report
// writers call them.
func (s *paperState) traced(tr *tracer, parent int) ([]cell, error) {
	var explore []core.ExplorationResult
	if err := tr.call("core.explore", parent, "", func() (err error) {
		explore, err = core.ExploreContext(context.Background(), s.w.points, s.o, runner.Config{Workers: 1})
		return err
	}); err != nil {
		return nil, err
	}
	sims := newTracedSims()
	cfg := noc.DefaultConfig()
	results := make([]core.TraceResult, len(s.w.jobs))
	for i, job := range s.w.jobs {
		net, tab := s.nets[i], s.tabs[i]
		id := tr.begin("core.trace_job", parent)
		var events []trace.Event
		if err := tr.call("npb.generate", id, "npb.alloc_mb", func() (err error) {
			events, err = npb.Generate(job.Kernel)
			return err
		}); err != nil {
			return nil, err
		}
		tr.add("npb.events", float64(len(events)))
		var pkts []noc.Packet
		if err := tr.call("trace.packetize", id, "trace.alloc_mb", func() (err error) {
			pkts, err = trace.Packetize(events, net.NumNodes(), trace.DefaultPacketize())
			return err
		}); err != nil {
			return nil, err
		}
		tr.add("trace.packets", float64(len(pkts)))
		st, err := sims.simulate(tr, id, net, tab, cfg, func(sim *noc.Sim) error { return sim.InjectAll(pkts) })
		if err != nil {
			return nil, err
		}
		var dyn, static float64
		if err := tr.call("energy.price", id, "", func() (err error) {
			dyn, static, err = core.PriceRun(net, st, s.o.DSENT)
			return err
		}); err != nil {
			return nil, err
		}
		tr.end(id)
		results[i] = core.TraceResult{Kernel: job.Kernel.Kernel, Point: job.Point,
			AvgLatencyClks: st.AvgPacketLatencyClks, DynamicEnergyJ: dyn, StaticPowerW: static, Stats: st}
	}
	if err := tr.call("report.write", parent, "", func() error { return writeReports(explore, results) }); err != nil {
		return nil, err
	}
	return paperCells(explore, results), nil
}

func (w *paperRepro) flitHops(st state) (int64, error) {
	var sum int64
	for _, r := range st.(*paperState).results {
		for _, f := range r.Stats.LinkFlits {
			sum += f
		}
	}
	return sum, nil
}

func (w *paperRepro) check(cells []cell) (attempted, failed int) {
	if w.want != nil {
		return len(w.want), countMismatches(cells, w.want)
	}
	for _, c := range cells {
		for _, v := range c.Vals {
			if !(v > 0) {
				failed++
				break
			}
		}
	}
	return len(cells), failed
}
