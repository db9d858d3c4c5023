package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/energy"
	"repro/internal/noc"
	"repro/internal/runner"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// PatternSweepConfig parameterizes the open-loop load sweeps: the pattern
// saturation sweep, the energy sweep and the serving layer's EvalCells
// (which reads only Workload and NoC — each cell carries its own rate).
type PatternSweepConfig struct {
	// Rates is the ascending offered-load grid in flits/cycle; the
	// latency-knee detector (noc.DetectSaturation) reads the first rate
	// as the zero-load baseline.
	Rates []float64
	// Workload shapes the open-loop arrivals at each point.
	Workload noc.BernoulliWorkload
	// NoC configures the cycle-accurate simulator.
	NoC noc.Config
}

// DefaultPatternSweep returns a sweep that resolves each pattern's knee
// in seconds on an 8×8 grid (the CLIs scale Options.Topology down to
// 8×8 for cycle-accurate sweeps): a rate ladder from well below to well
// beyond mesh saturation, 1-flit packets over a 5000-cycle horizon.
func DefaultPatternSweep() PatternSweepConfig {
	cfg := noc.DefaultConfig()
	cfg.MaxCycles = 200000
	return PatternSweepConfig{
		Rates:    []float64{0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5},
		Workload: noc.BernoulliWorkload{SizeFlits: 1, Cycles: 5000, Seed: 13},
		NoC:      cfg,
	}
}

// Validate checks the sweep parameters.
func (c PatternSweepConfig) Validate() error {
	if len(c.Rates) == 0 {
		return fmt.Errorf("core: pattern sweep with no rates")
	}
	prev := 0.0
	for _, r := range c.Rates {
		if r <= prev {
			return fmt.Errorf("core: sweep rates must ascend from above zero, got %v", c.Rates)
		}
		prev = r
	}
	return nil
}

// PatternSweepResult is one (topology kind, design point, pattern) cell of
// an open-loop load sweep: the full load-latency curve plus the detected
// saturation throughput and, when the sweep is priced (EnergySweep), the
// measured energy of every drained rate.
type PatternSweepResult struct {
	// Kind is the topology family the cell ran on (canonical; "mesh"
	// for sweeps predating the registry).
	Kind    topology.Kind
	Point   DesignPoint
	Pattern string
	// Curve holds one point per swept rate, in rate order.
	Curve []noc.LoadPoint
	// SaturationRate is the latency-knee offered load (see
	// noc.DetectSaturation); zero when the design never saturates within
	// the swept range.
	SaturationRate float64
	// Saturates reports whether the knee lies inside the swept range.
	Saturates bool
	// AtFloor marks a cell whose lowest swept rate already saturated:
	// SaturationRate then only bounds capacity from above (the true knee
	// lies at or below the sweep floor) and must not be read — or
	// rendered — as a measured throughput.
	AtFloor bool
	// StaticW and AreaM2 are the fabric's network-level constants (priced
	// sweeps only).
	StaticW, AreaM2 float64
	// Energy is indexed like Curve: the pricing of each rate, zero for a
	// saturated one. It is nil when the sweep is unpriced.
	Energy []EnergyPoint
}

// EnergyAt returns the pricing of the i-th rate, zero when the sweep is
// unpriced.
func (r PatternSweepResult) EnergyAt(i int) EnergyPoint {
	if i < len(r.Energy) {
		return r.Energy[i]
	}
	return EnergyPoint{}
}

// PointLabel renders the design point for tables. DesignPoint.String
// names the mesh; when the row's Kind already names the fabric, the
// label reduces to the technology axis.
func (r PatternSweepResult) PointLabel() string {
	if r.Kind == "" || r.Kind == topology.Mesh {
		return r.Point.String()
	}
	if r.Point.Hops == 0 {
		return r.Point.Base.String()
	}
	// cmesh can carry express links; keep the axis without the "mesh"
	// word DesignPoint.String would add.
	return fmt.Sprintf("%v + %v express@%d", r.Point.Base, r.Point.Express, r.Point.Hops)
}

// ZeroLoadLatencyClks returns the curve's first (lowest-rate) average
// latency — the knee detector's baseline.
func (r PatternSweepResult) ZeroLoadLatencyClks() float64 {
	if len(r.Curve) == 0 {
		return 0
	}
	return r.Curve[0].AvgLatencyClks
}

// PatternSweep runs the design-point × pattern saturation matrix on the
// worker pool: each (point, pattern) job generates and validates the
// pattern matrix on the point's cached network, then walks the rate
// ladder serially with the cycle-accurate simulator, recycling simulators
// through one batch-wide noc.SimPool. Jobs share only read-only inputs
// and results are collected in (point-major, pattern-minor) order, so the
// output is bit-identical for any worker count — the same determinism
// contract as Explore. The first failure cancels the batch.
func PatternSweep(ctx context.Context, points []DesignPoint, patterns []traffic.Pattern,
	sc PatternSweepConfig, o Options, pool runner.Config) ([]PatternSweepResult, error) {
	return patternSweep(ctx, nil, points, patterns, false, sc, o, pool)
}

// TopologyPatternSweep runs the topology × pattern saturation matrix
// exactly like PatternSweep, with every selected kind built at the
// Options' grid on the plain base technology — the kind-portable design
// point every family supports. Results come back kind-major,
// pattern-minor. Express hybrids stay a mesh-family axis: sweep them per
// kind through PatternSweep.
func TopologyPatternSweep(ctx context.Context, kinds []topology.Kind, patterns []traffic.Pattern,
	sc PatternSweepConfig, o Options, pool runner.Config) ([]PatternSweepResult, error) {
	if len(kinds) == 0 {
		return nil, fmt.Errorf("core: topology sweep with no kinds")
	}
	return patternSweep(ctx, kinds, []DesignPoint{o.plainPoint()}, patterns, false, sc, o, pool)
}

// patternSweep is the (kind × point) × pattern body of every open-loop
// load sweep; nil kinds selects the Options' kind. A priced sweep folds
// one energy.Model per fabric up front, shares it read-only across the
// pool and prices each drained rate with it.
func patternSweep(ctx context.Context, kinds []topology.Kind, points []DesignPoint, patterns []traffic.Pattern,
	priced bool, sc PatternSweepConfig, o Options, pool runner.Config) ([]PatternSweepResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if len(patterns) == 0 {
		return nil, fmt.Errorf("core: pattern sweep with no patterns")
	}
	fabs, err := o.fabrics(kinds, points)
	if err != nil {
		return nil, err
	}
	models := make([]*energy.Model, len(fabs))
	if priced {
		for i, f := range fabs {
			if models[i], err = energy.NewModel(f.net, o.DSENT); err != nil {
				return nil, fmt.Errorf("core: %v: %w", f, err)
			}
		}
	}
	sims := noc.NewSimPool()
	return runner.Map(ctx, len(fabs)*len(patterns), pool, func(ctx context.Context, i int) (PatternSweepResult, error) {
		f, model, pat := fabs[i/len(patterns)], models[i/len(patterns)], patterns[i%len(patterns)]
		base, err := patternBase(pat, f.net)
		if err != nil {
			return PatternSweepResult{}, fmt.Errorf("core: %v / %s: %w", f, pat.Name(), err)
		}
		res := PatternSweepResult{Kind: f.kind, Point: f.point, Pattern: pat.Name(),
			Curve: make([]noc.LoadPoint, 0, len(sc.Rates))}
		if model != nil {
			res.StaticW, res.AreaM2 = model.StaticW(), model.AreaM2()
			res.Energy = make([]EnergyPoint, len(sc.Rates))
		}
		for ri, rate := range sc.Rates {
			if err := ctx.Err(); err != nil {
				return PatternSweepResult{}, err
			}
			st, err := f.loadRun(base, rate, sc.Workload, sc.NoC, sims, nil)
			pt := noc.LoadPoint{InjectionRate: rate}
			switch {
			case err == nil:
				pt.AvgLatencyClks, pt.P99LatencyClks = st.AvgPacketLatencyClks, st.P99PacketLatencyClks
				if model != nil {
					res.Energy[ri], err = price(model, st, rate)
				}
			case errors.Is(err, noc.ErrSaturated):
				// A run that fails to drain is a curve point, not a failure.
				pt.Saturated, err = true, nil
			}
			if err != nil {
				return PatternSweepResult{}, fmt.Errorf("core: %v / %s @ %v: %w", f, pat.Name(), rate, err)
			}
			res.Curve = append(res.Curve, pt)
		}
		res.SaturationRate, res.AtFloor, res.Saturates = noc.DetectSaturation(res.Curve)
		return res, nil
	})
}
