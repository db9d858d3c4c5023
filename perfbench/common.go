package main

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// cell is one simulated output a pass produces: a trace run, a load point,
// a task-graph run or a served query. Vals holds the numbers that are
// checked exactly; Text holds a served reply.
type cell struct {
	Key  string             `json:"key"`
	Vals map[string]float64 `json:"vals,omitempty"`
	Text string             `json:"text,omitempty"`
}

func sameCell(a, b cell) bool {
	if a.Key != b.Key || a.Text != b.Text || len(a.Vals) != len(b.Vals) {
		return false
	}
	for k, v := range a.Vals {
		w, ok := b.Vals[k]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// countMismatches compares two cell lists position by position; a missing
// or extra cell counts as a mismatch.
func countMismatches(got, want []cell) int {
	bad := 0
	for i := 0; i < len(got) || i < len(want); i++ {
		if i >= len(got) || i >= len(want) || !sameCell(got[i], want[i]) {
			bad++
		}
	}
	return bad
}

// digest fingerprints a cell list, one hash per cell, so a run can keep
// its reference outputs without their bytes counting in live_heap_mb.
func digest(cells []cell) []uint64 {
	out := make([]uint64, len(cells))
	for i, c := range cells {
		h := fnv.New64a()
		h.Write([]byte(c.Key))
		h.Write([]byte{0})
		h.Write([]byte(c.Text))
		keys := make([]string, 0, len(c.Vals))
		for k := range c.Vals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			h.Write([]byte(k))
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(c.Vals[k])))
		}
		out[i] = h.Sum64()
	}
	return out
}

// countDigestMismatches is countMismatches on digests.
func countDigestMismatches(got, want []uint64) int {
	bad := 0
	for i := 0; i < len(got) || i < len(want); i++ {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			bad++
		}
	}
	return bad
}

// passOutput is what one untraced pass hands back for checking and for
// the end-to-end metrics.
type passOutput struct {
	cells []cell
	// latMs holds the host time of each result the pass produced: one per
	// simulated cell, or one per served query.
	latMs []float64
}

// workload is one benchmark workload. setup builds everything a pass
// needs before its first timed call; tr is nil outside the traced run.
type workload interface {
	params() map[string]any
	setup(tr *tracer, parent int) (state, error)
	// check returns how many outputs were checked and how many failed,
	// against the stored outputs at the default seed and against
	// invariants at any other seed.
	check(cells []cell) (attempted, failed int)
	// flitHops is the number of channel traversals one pass simulates,
	// computed from the workload's inputs and routes.
	flitHops(st state) (int64, error)
}

// state is one set-up pass.
type state interface {
	run(l *lapper) (passOutput, error)
	traced(tr *tracer, parent int) ([]cell, error)
	close()
}

// lapper times consecutive completions reported through
// runner.Config.Progress; with one worker each lap is one job.
type lapper struct {
	last time.Time
	ms   []float64
}

func (l *lapper) start() { l.last = time.Now() }

func (l *lapper) lap(_, _ int) {
	now := time.Now()
	l.ms = append(l.ms, float64(now.Sub(l.last).Nanoseconds())/1e6)
	l.last = now
}

// netConfig is the topology core.Options.NetworkAndTable builds for a
// design point.
func netConfig(o core.Options, p core.DesignPoint) topology.Config {
	c := o.Topology
	c.BaseTech, c.ExpressTech, c.ExpressHops = p.Base, p.Express, p.Hops
	if c.ExpressHops == 0 {
		c.ExpressTech = c.BaseTech
	}
	return c
}

// setupNet resolves a design point in the set-up: through the pass's
// NetworkCache, and in the traced run also by direct, timed calls to the
// topology and routing builders, whose results the traced pipeline uses.
func setupNet(tr *tracer, parent int, o core.Options, p core.DesignPoint) (*topology.Network, *routing.Table, error) {
	net, tab, err := o.NetworkAndTable(p)
	if err != nil || tr == nil {
		return net, tab, err
	}
	err = tr.call("topology.build", parent, "", func() (err error) {
		net, err = topology.Build(netConfig(o, p))
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	err = tr.call("routing.build", parent, "", func() (err error) {
		tab, err = routing.Build(net, o.Policy)
		return err
	})
	return net, tab, err
}

// hopFlits is the channel traversals of one packet on its route.
func hopFlits(tab *routing.Table, src, dst topology.NodeID, sizeFlits int) int64 {
	return int64(tab.HopCount(src, dst)) * int64(sizeFlits)
}

// bernoulliFlitHops regenerates the open-loop packets one pattern load
// point simulates and sums their routes.
func bernoulliFlitHops(net *topology.Network, tab *routing.Table, pat traffic.Pattern, rate float64,
	w noc.BernoulliWorkload) (int64, error) {
	base, err := pat.Generate(net, 1)
	if err != nil {
		return 0, err
	}
	pkts, err := w.Generate(net, base.ScaledToMaxRate(rate))
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, p := range pkts {
		sum += hopFlits(tab, p.Src, p.Dst, p.SizeFlits)
	}
	return sum, nil
}

type simKey struct {
	net *topology.Network
	tab *routing.Table
	cfg noc.Config
}

// tracedSims wraps one noc.SimPool the way a core sweep uses it, and
// tells a cold Get (noc.New) from a warm one (Reset) by mirroring the
// pool's free lists; the traced pipelines run on one worker.
type tracedSims struct {
	pool *noc.SimPool
	free map[simKey]int
}

func newTracedSims() *tracedSims {
	return &tracedSims{pool: noc.NewSimPool(), free: map[simKey]int{}}
}

// simulate runs one simulation the way core does: Get, inject, Run, Put.
func (p *tracedSims) simulate(tr *tracer, parent int, net *topology.Network, tab *routing.Table,
	cfg noc.Config, inject func(*noc.Sim) error) (noc.Stats, error) {
	k := simKey{net, tab, cfg}
	name := "noc.new"
	if p.free[k] > 0 {
		name = "noc.reset"
		p.free[k]--
	}
	var s *noc.Sim
	if err := tr.call(name, parent, "", func() (err error) {
		s, err = p.pool.Get(net, tab, cfg)
		return err
	}); err != nil {
		return noc.Stats{}, err
	}
	if err := tr.call("noc.inject", parent, "noc.inject_alloc_mb", func() error { return inject(s) }); err != nil {
		return noc.Stats{}, err
	}
	var st noc.Stats
	var runErr error
	_ = tr.call("noc.run", parent, "", func() error {
		st, runErr = s.Run()
		return nil
	})
	p.pool.Put(s)
	p.free[k]++
	var hops int64
	for _, f := range st.LinkFlits {
		hops += f
	}
	tr.add("noc.flit_hops", float64(hops))
	tr.add("noc.sim_cycles", float64(st.Cycles))
	if errors.Is(runErr, noc.ErrSaturated) {
		tr.add("noc.saturated_runs", 1)
	}
	return st, runErr
}

// quantile is the nearest-rank quantile of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

func isSaturated(err error) bool { return errors.Is(err, noc.ErrSaturated) }
