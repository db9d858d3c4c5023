package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/runner"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/units"
)

// TestEnergySweepShape also pins the merged row: pricing adds Energy to
// the unpriced PatternSweep row and changes nothing else it holds.
func TestEnergySweepShape(t *testing.T) {
	points, pats, sc, o := sweepFixture(t)
	kinds := []topology.Kind{topology.Mesh}
	results, err := EnergySweep(context.Background(), kinds, points, pats, sc, o, runner.Config{})
	if err != nil {
		t.Fatal(err)
	}
	unpriced, err := PatternSweep(context.Background(), points, pats, sc, o, runner.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(kinds)*len(points)*len(pats) || len(unpriced) != len(results) {
		t.Fatalf("%d priced and %d unpriced results, want %d",
			len(results), len(unpriced), len(kinds)*len(points)*len(pats))
	}
	for i, r := range results {
		wantPoint, wantPat := points[(i/len(pats))%len(points)], pats[i%len(pats)]
		if r.Kind != topology.Mesh || r.Point != wantPoint || r.Pattern != wantPat.Name() {
			t.Errorf("result %d is %v/%v/%s, want mesh/%v/%s",
				i, r.Kind, r.Point, r.Pattern, wantPoint, wantPat.Name())
		}
		u := unpriced[i]
		if !reflect.DeepEqual(r.Curve, u.Curve) || r.SaturationRate != u.SaturationRate ||
			r.Saturates != u.Saturates || r.AtFloor != u.AtFloor {
			t.Errorf("result %d: priced row's curve or knee differs from PatternSweep's:\npriced:   %+v\nunpriced: %+v",
				i, r, u)
		}
		if u.Energy != nil || u.StaticW != 0 {
			t.Errorf("unpriced result %d carries pricing: %+v", i, u)
		}
		if len(r.Energy) != len(sc.Rates) || len(r.Curve) != len(sc.Rates) {
			t.Fatalf("result %d has %d samples and %d curve points, want %d",
				i, len(r.Energy), len(r.Curve), len(sc.Rates))
		}
		if r.StaticW <= 0 || r.AreaM2 <= 0 {
			t.Errorf("result %d constants static %v area %v", i, r.StaticW, r.AreaM2)
		}
		for pi, p := range r.Energy {
			if r.Curve[pi].Saturated {
				if p.Pareto {
					t.Errorf("result %d sample %d: saturated point on the frontier", i, pi)
				}
				continue
			}
			if p.Run.FJPerBit <= 0 || p.Run.TotalJ <= 0 || p.CLEAR.Value <= 0 {
				t.Errorf("result %d sample %d: empty accounting %+v", i, pi, p.Run)
			}
			if !units.ApproxEqual(p.Run.StaticJ, r.StaticW*p.Run.Seconds, 1e-9) {
				t.Errorf("result %d sample %d: static %v J != %v W × %v s",
					i, pi, p.Run.StaticJ, r.StaticW, p.Run.Seconds)
			}
		}
	}
}

// TestEnergySweepAcrossKinds: the kind axis works end to end on plain
// points, and each cell reports the canonical kind it ran on.
func TestEnergySweepAcrossKinds(t *testing.T) {
	_, pats, sc, o := sweepFixture(t)
	pats = pats[:1]
	sc.Rates = sc.Rates[:1]
	plain := []DesignPoint{{Base: tech.Electronic, Express: tech.Electronic, Hops: 0}}
	kinds := []topology.Kind{topology.Mesh, topology.FBFly}
	results, err := EnergySweep(context.Background(), kinds, plain, pats, sc, o, runner.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Kind != topology.Mesh || results[1].Kind != topology.FBFly {
		t.Fatalf("kind axis wrong: %+v", results)
	}
	// fbfly's all-to-all rows terminate routes in ≤ 2 hops, so at equal
	// rate it must spend less link energy per bit than the mesh... but
	// it also carries far more channels (static). Just pin both priced.
	for _, r := range results {
		if r.Curve[0].Saturated || r.Energy[0].Run.FJPerBit <= 0 {
			t.Errorf("%v cell not priced: %+v", r.Kind, r.Energy[0])
		}
	}
}

// TestEnergySweepParetoFrontier: frontier marks are internally consistent —
// every scenario with a drained sample has at least one frontier point, no
// marked point is dominated, and every unmarked drained point is dominated
// by some marked one.
func TestEnergySweepParetoFrontier(t *testing.T) {
	points, pats, sc, o := sweepFixture(t)
	results, err := EnergySweep(context.Background(), []topology.Kind{topology.Mesh},
		points, pats, sc, o, runner.Config{})
	if err != nil {
		t.Fatal(err)
	}
	type scenario struct{ pattern string }
	type sample struct {
		lat, fj float64
		pareto  bool
	}
	byScenario := map[scenario][]sample{}
	for _, r := range results {
		for pi, p := range r.Energy {
			if !r.Curve[pi].Saturated && p.Run.FJPerBit > 0 {
				byScenario[scenario{r.Pattern}] = append(byScenario[scenario{r.Pattern}],
					sample{r.Curve[pi].AvgLatencyClks, p.Run.FJPerBit, p.Pareto})
			}
		}
	}
	if len(byScenario) == 0 {
		t.Fatal("no drained samples")
	}
	dominates := func(a, b sample) bool {
		return a.lat <= b.lat && a.fj <= b.fj && (a.lat < b.lat || a.fj < b.fj)
	}
	for key, samples := range byScenario {
		var frontier int
		for _, s := range samples {
			if s.pareto {
				frontier++
			}
		}
		if frontier == 0 {
			t.Errorf("%v: no frontier point among %d samples", key, len(samples))
		}
		for i, s := range samples {
			dominated := false
			for j, o := range samples {
				if i != j && dominates(o, s) {
					dominated = true
					break
				}
			}
			if s.pareto && dominated {
				t.Errorf("%v: marked sample %d (%v, %v) is dominated", key, i, s.lat, s.fj)
			}
			if !s.pareto && !dominated {
				t.Errorf("%v: unmarked sample %d (%v, %v) is undominated", key, i, s.lat, s.fj)
			}
		}
	}
}

func TestEnergySweepValidation(t *testing.T) {
	points, pats, sc, o := sweepFixture(t)
	kinds := []topology.Kind{topology.Mesh}
	ctx := context.Background()
	if _, err := EnergySweep(ctx, nil, points, pats, sc, o, runner.Config{}); err == nil {
		t.Error("no kinds accepted")
	}
	if _, err := EnergySweep(ctx, kinds, nil, pats, sc, o, runner.Config{}); err == nil {
		t.Error("no points accepted")
	}
	if _, err := EnergySweep(ctx, kinds, points, nil, sc, o, runner.Config{}); err == nil {
		t.Error("no patterns accepted")
	}
	bad := sc
	bad.Rates = nil
	if _, err := EnergySweep(ctx, kinds, points, pats, bad, o, runner.Config{}); err == nil {
		t.Error("empty rate ladder accepted")
	}
	// Express points on a kind that rejects them must fail up front.
	if _, err := EnergySweep(ctx, []topology.Kind{topology.Torus}, points, pats, sc, o,
		runner.Config{}); err == nil {
		t.Error("torus + express accepted")
	}
}
