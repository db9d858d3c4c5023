package main

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// scale64 is the 64×64 scale-smoke sweep: HyPPI row-closure express rings
// under uniform and tornado traffic at one load below the knee.
type scale64 struct {
	seed     int64
	want     []cell
	grid     int
	point    core.DesignPoint
	patterns []traffic.Pattern
	sc       core.PatternSweepConfig
}

func newScale64(seed int64, quick bool) (*scale64, error) {
	w := &scale64{seed: seed, want: expectedFor("scale-64", seed, quick), grid: 64}
	if quick {
		w.grid = 16
	}
	w.point = core.DesignPoint{Base: tech.HyPPI, Express: tech.HyPPI, Hops: w.grid - 1}
	for _, name := range []string{"uniform", "tornado"} {
		p, err := traffic.Lookup(name)
		if err != nil {
			return nil, err
		}
		w.patterns = append(w.patterns, p)
	}
	cfg := noc.DefaultConfig()
	cfg.MaxCycles = 200000
	w.sc = core.PatternSweepConfig{
		Rates:    []float64{0.005},
		Workload: noc.BernoulliWorkload{SizeFlits: 1, Cycles: 2000, Seed: seed},
		NoC:      cfg,
	}
	return w, nil
}

func (w *scale64) params() map[string]any {
	return map[string]any{
		"grid": fmt.Sprintf("%dx%d", w.grid, w.grid), "point": w.point.String(),
		"patterns": []string{"uniform", "tornado"}, "rates": w.sc.Rates,
		"workload": w.sc.Workload, "noc": w.sc.NoC, "workers": 1,
	}
}

type scaleState struct {
	w   *scale64
	o   core.Options
	net *topology.Network // for the traced pipeline
	tab *routing.Table
	// The last pass's results, reachable when live_heap_mb is read.
	results []core.PatternSweepResult
}

func (w *scale64) setup(tr *tracer, parent int) (state, error) {
	s := &scaleState{w: w, o: core.DefaultOptions()}
	s.o.Cache = core.NewNetworkCache()
	s.o.Topology.Width, s.o.Topology.Height = w.grid, w.grid
	var err error
	s.net, s.tab, err = setupNet(tr, parent, s.o, w.point)
	return s, err
}

func (s *scaleState) close() {}

func (s *scaleState) run(l *lapper) (passOutput, error) {
	l.start()
	res, err := core.PatternSweep(context.Background(), []core.DesignPoint{s.w.point}, s.w.patterns,
		s.w.sc, s.o, runner.Config{Workers: 1, Progress: l.lap})
	if err != nil {
		return passOutput{}, err
	}
	s.results = res
	var cells []cell
	for _, r := range res {
		cells = append(cells, loadCells(r.Pattern, r.Curve)...)
	}
	return passOutput{cells: cells, latMs: l.ms}, nil
}

func loadCells(pattern string, curve []noc.LoadPoint) []cell {
	cells := make([]cell, len(curve))
	for i, pt := range curve {
		sat := 0.0
		if pt.Saturated {
			sat = 1
		}
		cells[i] = cell{Key: fmt.Sprintf("%s@%v", pattern, pt.InjectionRate), Vals: map[string]float64{
			"avg_latency_clks": pt.AvgLatencyClks, "p99_latency_clks": pt.P99LatencyClks, "saturated": sat,
		}}
	}
	return cells
}

// traced replays core.PatternSweep → noc.PatternLoadLatencyCurves →
// the per-rate load point through the layers' public functions.
func (s *scaleState) traced(tr *tracer, parent int) ([]cell, error) {
	sims := newTracedSims()
	var cells []cell
	for _, pat := range s.w.patterns {
		id := tr.begin("core.pattern_cell", parent)
		var base *traffic.Matrix
		if err := tr.call("traffic.matrix", id, "traffic.alloc_mb", func() (err error) {
			if base, err = pat.Generate(s.net, 1); err != nil {
				return err
			}
			return base.Validate()
		}); err != nil {
			return nil, err
		}
		curve := make([]noc.LoadPoint, len(s.w.sc.Rates))
		for i, rate := range s.w.sc.Rates {
			var pkts []noc.Packet
			if err := tr.call("traffic.generate", id, "traffic.alloc_mb", func() (err error) {
				pkts, err = s.w.sc.Workload.Generate(s.net, base.ScaledToMaxRate(rate))
				return err
			}); err != nil {
				return nil, err
			}
			tr.add("traffic.packets", float64(len(pkts)))
			st, err := sims.simulate(tr, id, s.net, s.tab, s.w.sc.NoC, func(sim *noc.Sim) error { return sim.InjectAll(pkts) })
			curve[i] = noc.LoadPoint{InjectionRate: rate}
			switch {
			case err == nil:
				curve[i].AvgLatencyClks, curve[i].P99LatencyClks = st.AvgPacketLatencyClks, st.P99PacketLatencyClks
			case isSaturated(err):
				curve[i].Saturated = true
			default:
				return nil, err
			}
		}
		tr.end(id)
		cells = append(cells, loadCells(pat.Name(), curve)...)
	}
	return cells, nil
}

// flitHops regenerates the pass's Bernoulli packets and sums their routes.
func (w *scale64) flitHops(st state) (int64, error) {
	s := st.(*scaleState)
	net, tab, err := s.o.NetworkAndTable(w.point)
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, pat := range w.patterns {
		for _, rate := range w.sc.Rates {
			n, err := bernoulliFlitHops(net, tab, pat, rate, w.sc.Workload)
			if err != nil {
				return 0, err
			}
			sum += n
		}
	}
	return sum, nil
}

// check: at other seeds every point must drain (the load sits below the
// knee) with a positive latency.
func (w *scale64) check(cells []cell) (attempted, failed int) {
	if w.want != nil {
		return len(w.want), countMismatches(cells, w.want)
	}
	for _, c := range cells {
		if c.Vals["saturated"] != 0 || !(c.Vals["avg_latency_clks"] > 0) {
			failed++
		}
	}
	return len(cells), failed
}
