package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/taskgraph"
	"repro/internal/tech"
	"repro/internal/topology"
)

// permuted wraps a built-in generator and places its ranks on nodes by a
// seeded permutation, so the seed varies which links the collectives load
// while the program still receives only a generated graph. Ranks are
// shuffled within each 2×2 tile of the square grid: a full shuffle would
// turn every neighbour exchange into a random long-haul message and make
// the workload a different one, not another draw of the same one.
type permuted struct {
	taskgraph.Generator
	seed int64
}

func (g permuted) Generate(n int, cfg taskgraph.GenConfig) (*taskgraph.Graph, error) {
	gr, err := g.Generator.Generate(n, cfg)
	if err != nil {
		return nil, err
	}
	side := int(math.Sqrt(float64(n)))
	if side*side != n || side%2 != 0 {
		return nil, fmt.Errorf("rank permutation needs an even square grid, got %d nodes", n)
	}
	rng := rand.New(rand.NewSource(g.seed))
	perm := make([]topology.NodeID, n)
	for ty := 0; ty < side; ty += 2 {
		for tx := 0; tx < side; tx += 2 {
			tile := [4]int{ty*side + tx, ty*side + tx + 1, (ty+1)*side + tx, (ty+1)*side + tx + 1}
			for i, j := range rng.Perm(4) {
				perm[tile[i]] = topology.NodeID(tile[j])
			}
		}
	}
	for i := range gr.Messages {
		m := &gr.Messages[i]
		m.Src, m.Dst = perm[m.Src], perm[m.Dst]
	}
	return gr, nil
}

// tgGroup is one core.TaskGraphSweep call: the generators sharing a grid.
type tgGroup struct {
	grid int
	gens []taskgraph.Generator
}

// taskgraphClosedLoop replays collective and MoE operator DAGs with
// dependency-gated release on the plain mesh and on E+HyPPI@5.
type taskgraphClosedLoop struct {
	seed   int64
	want   []cell
	points []core.DesignPoint
	groups []tgGroup
	sc     core.TaskGraphSweepConfig
}

func newTaskgraph(seed int64, quick bool) (*taskgraphClosedLoop, error) {
	w := &taskgraphClosedLoop{seed: seed, want: expectedFor("taskgraph-closedloop", seed, quick),
		points: []core.DesignPoint{
			{Base: tech.Electronic, Express: tech.Electronic},
			{Base: tech.Electronic, Express: tech.HyPPI, Hops: 5},
		},
		sc: core.DefaultTaskGraphSweep(),
	}
	big, small := 16, 8
	bigNames := []string{"ring-allreduce", "allgather", "tree-allreduce", "pipeline"}
	if quick {
		big, small, bigNames = 8, 8, []string{"ring-allreduce", "pipeline"}
	}
	lookup := func(names ...string) ([]taskgraph.Generator, error) {
		var gens []taskgraph.Generator
		for _, name := range names {
			g, err := taskgraph.Lookup(name)
			if err != nil {
				return nil, err
			}
			gens = append(gens, permuted{Generator: g, seed: seed})
		}
		return gens, nil
	}
	for _, grp := range []struct {
		grid  int
		names []string
	}{{big, bigNames}, {small, []string{"moe-alltoall"}}} {
		gens, err := lookup(grp.names...)
		if err != nil {
			return nil, err
		}
		w.groups = append(w.groups, tgGroup{grid: grp.grid, gens: gens})
	}
	return w, nil
}

func (w *taskgraphClosedLoop) params() map[string]any {
	groups := map[string][]string{}
	for _, g := range w.groups {
		key := fmt.Sprintf("%dx%d", g.grid, g.grid)
		for _, gen := range g.gens {
			groups[key] = append(groups[key], gen.Name())
		}
	}
	points := make([]string, len(w.points))
	for i, p := range w.points {
		points[i] = p.String()
	}
	return map[string]any{"graphs": groups, "points": points, "gen": w.sc.Gen, "noc": w.sc.NoC,
		"rank_permutation_seed": w.seed, "workers": 1}
}

type tgState struct {
	w    *taskgraphClosedLoop
	opts []core.Options // per group
	nets [][]*topology.Network
	tabs [][]*routing.Table
	// The last pass's results, reachable when live_heap_mb is read.
	results []core.TaskGraphResult
}

func (w *taskgraphClosedLoop) setup(tr *tracer, parent int) (state, error) {
	s := &tgState{w: w}
	cache := core.NewNetworkCache()
	for _, g := range w.groups {
		o := core.DefaultOptions()
		o.Cache = cache
		o.Topology.Width, o.Topology.Height = g.grid, g.grid
		var nets []*topology.Network
		var tabs []*routing.Table
		for _, p := range w.points {
			net, tab, err := setupNet(tr, parent, o, p)
			if err != nil {
				return nil, err
			}
			nets, tabs = append(nets, net), append(tabs, tab)
		}
		s.opts, s.nets, s.tabs = append(s.opts, o), append(s.nets, nets), append(s.tabs, tabs)
	}
	return s, nil
}

func (s *tgState) close() {}

func tgCell(r core.TaskGraphResult) cell {
	return cell{Key: fmt.Sprintf("%s on %v", r.Graph, r.Point), Vals: map[string]float64{
		"makespan_clks": float64(r.MakespanClks), "lower_bound_clks": float64(r.LowerBoundClks), "stretch": r.Stretch,
	}}
}

func (s *tgState) run(l *lapper) (passOutput, error) {
	var out passOutput
	for gi, g := range s.w.groups {
		if gi > 0 {
			// The sweeps are independent calls: collect between them so
			// the 8×8 cells do not pay, at random, for the garbage the
			// 16×16 ones left.
			runtime.GC()
		}
		l.start()
		res, err := core.TaskGraphSweep(context.Background(), s.w.points, g.gens, s.w.sc, s.opts[gi],
			runner.Config{Workers: 1, Progress: l.lap})
		if err != nil {
			return passOutput{}, err
		}
		s.results = append(s.results, res...)
		for _, r := range res {
			out.cells = append(out.cells, tgCell(r))
		}
	}
	out.latMs = l.ms
	return out, nil
}

// traced replays core.TaskGraphSweep: graphs generated once per group,
// then one closed-loop simulation and critical-path bound per cell.
func (s *tgState) traced(tr *tracer, parent int) ([]cell, error) {
	var cells []cell
	cfg := s.w.sc.NoC
	for gi, g := range s.w.groups {
		if gi > 0 {
			runtime.GC()
		}
		graphs := make([]*taskgraph.Graph, len(g.gens))
		for i, gen := range g.gens {
			if err := tr.call("taskgraph.generate", parent, "taskgraph.alloc_mb", func() (err error) {
				if graphs[i], err = gen.Generate(g.grid*g.grid, s.w.sc.Gen); err != nil {
					return err
				}
				return graphs[i].Validate()
			}); err != nil {
				return nil, err
			}
			tr.add("taskgraph.messages", float64(len(graphs[i].Messages)))
		}
		sims := newTracedSims()
		for pi, point := range s.w.points {
			net, tab := s.nets[gi][pi], s.tabs[gi][pi]
			for _, gr := range graphs {
				id := tr.begin("core.taskgraph_cell", parent)
				pkts := make([]noc.Packet, len(gr.Messages))
				deps := make([][]int, len(gr.Messages))
				for i, m := range gr.Messages {
					pkts[i] = noc.Packet{Src: m.Src, Dst: m.Dst, SizeFlits: m.SizeFlits, Release: m.ComputeClks}
					deps[i] = m.Deps
				}
				st, err := sims.simulate(tr, id, net, tab, cfg, func(sim *noc.Sim) error { return sim.InjectClosedLoop(pkts, deps) })
				if err != nil {
					return nil, err
				}
				var lb int64
				if err := tr.call("taskgraph.bound", id, "", func() (err error) {
					lb, err = gr.CriticalPathClks(func(m taskgraph.Message) int64 {
						return int64(tab.LatencyClks(m.Src, m.Dst, cfg.PipelineClks) + m.SizeFlits - 1)
					})
					return err
				}); err != nil {
					return nil, err
				}
				tr.end(id)
				r := core.TaskGraphResult{Point: point, Graph: gr.Name, MakespanClks: st.MakespanClks, LowerBoundClks: lb}
				if lb > 0 {
					r.Stretch = float64(r.MakespanClks) / float64(lb)
				}
				cells = append(cells, tgCell(r))
			}
		}
	}
	return cells, nil
}

// flitHops regenerates the graphs and sums every message's route.
func (w *taskgraphClosedLoop) flitHops(st state) (int64, error) {
	s := st.(*tgState)
	var sum int64
	for gi, g := range w.groups {
		for _, gen := range g.gens {
			gr, err := gen.Generate(g.grid*g.grid, w.sc.Gen)
			if err != nil {
				return 0, err
			}
			for pi := range w.points {
				_, tab, err := s.opts[gi].NetworkAndTable(w.points[pi])
				if err != nil {
					return 0, err
				}
				for _, m := range gr.Messages {
					sum += hopFlits(tab, m.Src, m.Dst, m.SizeFlits)
				}
			}
		}
	}
	return sum, nil
}

// check: at other seeds no schedule may beat its contention-free bound.
func (w *taskgraphClosedLoop) check(cells []cell) (attempted, failed int) {
	if w.want != nil {
		return len(w.want), countMismatches(cells, w.want)
	}
	for _, c := range cells {
		if !(c.Vals["stretch"] >= 1) || c.Vals["makespan_clks"] < c.Vals["lower_bound_clks"] {
			failed++
		}
	}
	return len(cells), failed
}
