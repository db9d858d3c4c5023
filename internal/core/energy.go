package core

import (
	"context"
	"fmt"

	"repro/internal/energy"
	"repro/internal/noc"
	"repro/internal/runner"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// EnergyPoint is the pricing of one rate of a priced load sweep: what the
// matching PatternSweepResult.Curve point (rate, saturation, latency)
// does not already hold. A saturated rate carries no accounting.
type EnergyPoint struct {
	// Run is the measured energy accounting (internal/energy).
	Run energy.RunEnergy
	// CLEAR is the simulated eq. 2 evaluation at this rate.
	CLEAR energy.CLEAR
	// Pareto marks samples on the latency–energy frontier of their
	// (kind, pattern) scenario: no other non-saturated sample of any
	// competing design point offers both lower-or-equal latency and
	// lower-or-equal fJ/bit with one strictly lower.
	Pareto bool
}

// EnergySweep is the priced load sweep: the kind × design point × pattern
// × rate matrix of PatternSweep (same body, same kind-major,
// point-middle, pattern-minor order and determinism contract), with every
// drained rate priced by the fabric's energy.Model and, after collection,
// the latency–energy Pareto frontier of every (kind, pattern) scenario
// marked across its competing design points. Non-mesh kinds reject
// express design points at Build time; pass plain (Hops = 0) points for
// kind-portable sweeps, exactly as with ExploreKinds.
func EnergySweep(ctx context.Context, kinds []topology.Kind, points []DesignPoint,
	patterns []traffic.Pattern, sc PatternSweepConfig, o Options, pool runner.Config) ([]PatternSweepResult, error) {
	if len(kinds) == 0 || len(points) == 0 || len(patterns) == 0 {
		return nil, fmt.Errorf("core: energy sweep needs kinds, points and patterns")
	}
	results, err := patternSweep(ctx, kinds, points, patterns, true, sc, o, pool)
	if err != nil {
		return nil, err
	}
	markParetoFrontiers(results)
	return results, nil
}

// price prices one drained run at its offered rate (0 for trace runs,
// whose CLEAR falls back to the measured peak source rate): the measured
// energy accounting and the simulated CLEAR. Both the priced sweep and
// EvalCells price through it.
func price(model *energy.Model, st noc.Stats, rate float64) (EnergyPoint, error) {
	run, err := model.Price(st)
	if err != nil {
		return EnergyPoint{}, err
	}
	cl, err := model.SimulatedCLEAR(st, rate)
	if err != nil {
		return EnergyPoint{}, err
	}
	return EnergyPoint{Run: run, CLEAR: cl}, nil
}

// markParetoFrontiers marks, for every (kind, pattern) scenario, the
// samples on the latency–energy Pareto frontier across all competing
// design points and rates. Dominance is (AvgLatencyClks, FJPerBit):
// a sample is dominated when another non-saturated sample is ≤ on both
// axes and < on at least one, so duplicated optima all stay marked. The
// pass is a deterministic function of the collected results.
func markParetoFrontiers(results []PatternSweepResult) {
	type scenario struct {
		kind    topology.Kind
		pattern string
	}
	byScenario := map[scenario][][2]int{} // (result index, rate index)
	for ri, r := range results {
		key := scenario{r.Kind, r.Pattern}
		for pi, e := range r.Energy {
			if !r.Curve[pi].Saturated && e.Run.FJPerBit > 0 {
				byScenario[key] = append(byScenario[key], [2]int{ri, pi})
			}
		}
	}
	at := func(m [2]int) (lat, fj float64) {
		return results[m[0]].Curve[m[1]].AvgLatencyClks, results[m[0]].Energy[m[1]].Run.FJPerBit
	}
	for _, members := range byScenario {
		for _, m := range members {
			aLat, aFJ := at(m)
			dominated := false
			for _, o := range members {
				bLat, bFJ := at(o)
				if bLat <= aLat && bFJ <= aFJ && (bLat < aLat || bFJ < aFJ) {
					dominated = true
					break
				}
			}
			results[m[0]].Energy[m[1]].Pareto = !dominated
		}
	}
}
