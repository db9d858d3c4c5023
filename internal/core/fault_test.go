package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/dsent"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/noc"
	"repro/internal/runner"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/units"
)

// faultFixture is the tiny mesh + HyPPI-express matrix the acceptance
// criteria name: two geometries, two device variants, kept small enough to
// run under -race in short mode.
func faultFixture(t *testing.T) ([]DesignPoint, []string, []traffic.Pattern, FaultSweepConfig, Options) {
	t.Helper()
	pats, err := traffic.ParsePatterns("uniform")
	if err != nil {
		t.Fatal(err)
	}
	points := []DesignPoint{
		{Base: tech.Electronic, Express: tech.Electronic, Hops: 0},
		{Base: tech.Electronic, Express: tech.HyPPI, Hops: 3},
	}
	variants := []string{dsent.VariantBaseline, dsent.VariantMODetector}
	sc := DefaultFaultSweep()
	sc.Rates = []float64{0, 0.1, 0.3}
	sc.Epochs = 3
	sc.Workload.Cycles = 300
	sc.NoC.MaxCycles = 20000
	o := DefaultOptions()
	o.Topology.Width, o.Topology.Height = 4, 4
	return points, variants, pats, sc, o
}

func TestFaultSweepShape(t *testing.T) {
	points, variants, pats, sc, o := faultFixture(t)
	results, err := FaultSweep(context.Background(), []topology.Kind{topology.Mesh},
		points, variants, pats, sc, o, runner.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(points) * len(variants) * len(pats); len(results) != want {
		t.Fatalf("%d results, want %d", len(results), want)
	}
	for i, r := range results {
		if len(r.Points) != len(sc.Rates) {
			t.Fatalf("result %d has %d points, want %d", i, len(r.Points), len(sc.Rates))
		}
		healthy := r.Points[0]
		if healthy.FaultRate != 0 || healthy.Availability != 1 || healthy.DownLinkFrac != 0 {
			t.Fatalf("result %d healthy point degraded: %+v", i, healthy)
		}
		if healthy.PacketsUnroutable != 0 || healthy.SaturatedEpochs != 0 {
			t.Fatalf("result %d healthy point lost traffic: %+v", i, healthy)
		}
		if r.Variant == dsent.VariantBaseline && (healthy.Retransmits != 0 || healthy.PacketsDropped != 0) {
			t.Fatalf("result %d baseline healthy point saw faults: %+v", i, healthy)
		}
		if healthy.CLEAR <= 0 || healthy.CLEARDegradation != 1 {
			t.Fatalf("result %d healthy CLEAR reference broken: %+v", i, healthy)
		}
		for _, p := range r.Points {
			if p.PacketsDelivered+p.PacketsDropped != p.PacketsInjected {
				t.Fatalf("result %d rate %v loses packets: %+v", i, p.FaultRate, p)
			}
			if p.PacketsDelivered > 0 && p.FJPerBit <= 0 && p.SaturatedEpochs == 0 {
				t.Fatalf("result %d rate %v delivered packets but priced nothing", i, p.FaultRate)
			}
		}
		// The top of the ladder must take links down everywhere (whether
		// that partitions pairs depends on the fabric's redundancy).
		worst := r.Points[len(r.Points)-1]
		if worst.DownLinkFrac <= 0 {
			t.Fatalf("result %d rate %v downed no links: %+v", i, worst.FaultRate, worst)
		}
		if worst.Availability < 1 != (worst.PacketsUnroutable > 0) && worst.PacketsInjected > 0 {
			t.Fatalf("result %d rate %v availability %v inconsistent with %d unroutable packets",
				i, worst.FaultRate, worst.Availability, worst.PacketsUnroutable)
		}
	}
	// Across the matrix, the top rate must actually partition someone:
	// availability curves that never leave 1.0 test nothing.
	severed := false
	for _, r := range results {
		worst := r.Points[len(r.Points)-1]
		severed = severed || (worst.Availability < 1 && worst.PacketsUnroutable > 0)
	}
	if !severed {
		t.Fatal("no cell lost availability at the top fault rate")
	}
}

// TestFaultSweepZeroFaultDifferential is the acceptance criterion's
// differential test: the rate-0 point of a baseline-variant cell must be
// bit-identical to a hand-written epoch loop that never touches the fault
// machinery — same simulator, same workload seeds (the documented
// Workload.Seed + epoch chain), no FaultProfile, energy priced with the
// same thermal-trimming overhead recurrence.
func TestFaultSweepZeroFaultDifferential(t *testing.T) {
	_, _, pats, sc, o := faultFixture(t)
	point := DesignPoint{Base: tech.Electronic, Express: tech.HyPPI, Hops: 3}
	results, err := FaultSweep(context.Background(), []topology.Kind{topology.Mesh},
		[]DesignPoint{point}, []string{dsent.VariantBaseline}, pats, sc, o, runner.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got := results[0].Points[0]

	net, tab, err := o.NetworkAndTable(point)
	if err != nil {
		t.Fatal(err)
	}
	model, err := energy.NewModel(net, o.DSENT)
	if err != nil {
		t.Fatal(err)
	}
	base, err := pats[0].Generate(net, 1)
	if err != nil {
		t.Fatal(err)
	}
	tm := base.ScaledToMaxRate(sc.Load)
	tc := sc.Thermal
	tc.BaseFlitErrorProb = 0
	th, err := fault.NewThermal(net, tc)
	if err != nil {
		t.Fatal(err)
	}
	want := FaultPoint{FaultRate: 0, Availability: 1, CLEARDegradation: 1}
	var totalJ, totalBits, latWeighted, clearSum float64
	var clearN int
	for e := 0; e < sc.Epochs; e++ {
		w := sc.Workload
		w.Seed = sc.Workload.Seed + int64(e)
		pkts, err := w.Generate(net, tm)
		if err != nil {
			t.Fatal(err)
		}
		want.PacketsInjected += int64(len(pkts))
		overheadW := th.TrimmingOverheadW()
		want.TrimOverheadW += overheadW
		sim, err := noc.New(net, tab, sc.NoC)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.InjectAll(pkts); err != nil {
			t.Fatal(err)
		}
		st, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		want.PacketsDelivered += st.PacketsEjected
		latWeighted += st.AvgPacketLatencyClks * float64(st.PacketsEjected)
		re, err := model.PriceWithStaticOverhead(st, overheadW)
		if err != nil {
			t.Fatal(err)
		}
		totalJ += re.TotalJ
		totalBits += re.BitsEjected
		c, err := model.SimulatedCLEARWithOverhead(st, sc.Load, overheadW)
		if err != nil {
			t.Fatal(err)
		}
		clearSum += c.Value
		clearN++
		if err := th.Advance(st); err != nil {
			t.Fatal(err)
		}
	}
	want.TrimOverheadW /= float64(sc.Epochs)
	want.MaxDrift = th.MaxDrift()
	want.AvgLatencyClks = latWeighted / float64(want.PacketsDelivered)
	want.FJPerBit = totalJ / totalBits / units.Femto
	want.CLEAR = clearSum / float64(clearN)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("zero-fault point diverged from the fault-free loop:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestFaultSweepVariantBER checks the device-variant coupling: a variant
// with a nonzero error floor must produce retransmissions even on a
// healthy fabric, and every one of them must be delivered or dropped
// explicitly — never lost.
func TestFaultSweepVariantBER(t *testing.T) {
	points, _, pats, sc, o := faultFixture(t)
	// The MODetector's nominal error floor (2e-4 per traversal) needs
	// traffic volume and thermal gain to show on a short run: a longer
	// horizon and an aggressive drift model make the corruption draw's
	// fixed-seed outcome solidly nonzero without touching the registry.
	sc.Workload.Cycles = 2000
	sc.Thermal.HeatPerUtil = 100
	sc.Thermal.BERGainPerDrift = 100
	results, err := FaultSweep(context.Background(), []topology.Kind{topology.Mesh},
		points[1:], []string{dsent.VariantMODetector}, pats, sc, o, runner.Config{})
	if err != nil {
		t.Fatal(err)
	}
	healthy := results[0].Points[0]
	if healthy.Retransmits == 0 {
		t.Fatalf("MODetector error floor produced no retransmissions: %+v", healthy)
	}
	if healthy.PacketsDelivered+healthy.PacketsDropped != healthy.PacketsInjected {
		t.Fatalf("packets lost silently: %+v", healthy)
	}
	// Thermal drift heats the express links, so trimming overhead and
	// drift state must be visible in the aggregate.
	if healthy.MaxDrift <= 0 || healthy.TrimOverheadW <= 0 {
		t.Fatalf("thermal feedback left no trace: %+v", healthy)
	}
	// The error floor must cost energy relative to the same cell without
	// it (same fabric, baseline variant): retransmitted hops are priced.
	baseline, err := FaultSweep(context.Background(), []topology.Kind{topology.Mesh},
		points[1:], []string{dsent.VariantBaseline}, pats, sc, o, runner.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if healthy.PacketsDelivered == baseline[0].Points[0].PacketsDelivered &&
		healthy.FJPerBit <= baseline[0].Points[0].FJPerBit {
		t.Fatalf("BER-laden run not costlier than clean run: %v vs %v fJ/bit",
			healthy.FJPerBit, baseline[0].Points[0].FJPerBit)
	}
}

func TestFaultSweepValidation(t *testing.T) {
	points, variants, pats, sc, o := faultFixture(t)
	ctx := context.Background()
	kinds := []topology.Kind{topology.Mesh}
	if _, err := FaultSweep(ctx, kinds, points, nil, pats, sc, o, runner.Config{}); err == nil {
		t.Error("empty variant list must fail")
	}
	if _, err := FaultSweep(ctx, kinds, points, []string{"no-such-device"}, pats, sc, o, runner.Config{}); err == nil {
		t.Error("unknown variant must fail")
	}
	bad := sc
	bad.Rates = []float64{0.1, 0.2} // missing the healthy reference
	if _, err := FaultSweep(ctx, kinds, points, variants, pats, bad, o, runner.Config{}); err == nil {
		t.Error("ladder without rate 0 must fail")
	}
	bad = sc
	bad.Rates = []float64{0, 0.3, 0.2}
	if _, err := FaultSweep(ctx, kinds, points, variants, pats, bad, o, runner.Config{}); err == nil {
		t.Error("non-ascending ladder must fail")
	}
	bad = sc
	bad.Epochs = 0
	if _, err := FaultSweep(ctx, kinds, points, variants, pats, bad, o, runner.Config{}); err == nil {
		t.Error("zero epochs must fail")
	}
	bad = sc
	bad.Thermal.Decay = math.NaN()
	if _, err := FaultSweep(ctx, kinds, points, variants, pats, bad, o, runner.Config{}); err == nil {
		t.Error("NaN thermal decay must fail")
	}
}
