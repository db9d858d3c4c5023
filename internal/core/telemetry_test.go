package core

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/noc"
	"repro/internal/runner"
	"repro/internal/tech"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// telemetryFixture is a small instrumented sweep (4×4, two points, two
// patterns) sized to run under -race in short mode.
func telemetryFixture(t *testing.T) ([]DesignPoint, []traffic.Pattern, TelemetrySweepConfig, Options) {
	t.Helper()
	pats, err := traffic.ParsePatterns("uniform,tornado")
	if err != nil {
		t.Fatal(err)
	}
	points := []DesignPoint{
		{Base: tech.Electronic, Express: tech.Electronic, Hops: 0},
		{Base: tech.Electronic, Express: tech.HyPPI, Hops: 3},
	}
	sc := TelemetrySweepConfig{
		Rate:     0.1,
		Workload: noc.BernoulliWorkload{SizeFlits: 1, Cycles: 400, Seed: 5},
		NoC:      noc.DefaultConfig(),
		Telemetry: telemetry.Config{
			SampleRate:      0.2,
			Seed:            31,
			ProbeWindowClks: 50,
		},
	}
	sc.NoC.MaxCycles = 20000
	o := DefaultOptions()
	o.Topology.Width, o.Topology.Height = 4, 4
	return points, pats, sc, o
}

// telemetryKey flattens a result for bit-identity comparison: stats, the
// full span set, and every retained probe window.
func telemetryKey(t *testing.T, rs []TelemetryResult) []any {
	t.Helper()
	var key []any
	for _, r := range rs {
		key = append(key, r.Kind, r.Point, r.Pattern, r.Saturated, r.Stats,
			*r.Trace)
		p := r.Probes
		key = append(key, p.TotalWindows(), p.Evicted())
		for i := 0; i < p.Windows(); i++ {
			w := p.Window(i)
			key = append(key, w.Index(), w.InjectedFlits(), w.EjectedFlits())
			for l := 0; l < p.NumLinks(); l++ {
				key = append(key, w.LinkFlits(l))
			}
			for rr := 0; rr < p.NumRouters(); rr++ {
				key = append(key, w.Occupancy(rr))
			}
		}
	}
	return key
}

// TestTelemetryObserverOffBitIdentical: every cell's Stats must match the
// same run with no collector attached — telemetry costs nothing the
// kernel can measure.
func TestTelemetryObserverOffBitIdentical(t *testing.T) {
	points, pats, sc, o := telemetryFixture(t)
	instrumented, err := TelemetrySweep(context.Background(), points, pats, sc, o,
		runner.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The uninstrumented twin: the identical per-cell workload run on a
	// fresh sim with no observer attached.
	for i, res := range instrumented {
		pi, qi := i/len(pats), i%len(pats)
		net, tab, err := o.NetworkAndTable(points[pi])
		if err != nil {
			t.Fatal(err)
		}
		base, err := pats[qi].Generate(net, 1)
		if err != nil {
			t.Fatal(err)
		}
		pkts, err := sc.Workload.Generate(net, base.ScaledToMaxRate(sc.Rate))
		if err != nil {
			t.Fatal(err)
		}
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
		if !reflect.DeepEqual(res.Stats, st) {
			t.Errorf("cell %s: instrumented stats differ from plain run",
				res.Label())
		}
	}
}

// selfTrafficPattern is a malformed custom pattern: uniform traffic plus a
// self-addressed entry at node 0, which traffic.Matrix.Validate rejects.
type selfTrafficPattern struct{}

func (selfTrafficPattern) Name() string        { return "selfish" }
func (selfTrafficPattern) Description() string { return "uniform plus node 0 to itself" }
func (selfTrafficPattern) Generate(net *topology.Network, rate float64) (*traffic.Matrix, error) {
	m := traffic.NewMatrix(net.NumNodes())
	for s := range m.Rates {
		for d := range m.Rates[s] {
			m.Rates[s][d] = rate / float64(m.N-1)
		}
	}
	return m, nil
}

// TestTelemetrySweepValidatesPatterns: like every other sweep, the
// instrumented sweep validates each pattern matrix before simulating it,
// failing with the pattern named instead of silently dropping the
// self-addressed traffic.
func TestTelemetrySweepValidatesPatterns(t *testing.T) {
	points, _, sc, o := telemetryFixture(t)
	_, err := TelemetrySweep(context.Background(), points, []traffic.Pattern{selfTrafficPattern{}}, sc, o,
		runner.Config{Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "selfish") || !strings.Contains(err.Error(), "self traffic") {
		t.Fatalf("self-traffic pattern: err = %v, want a validation error naming the pattern", err)
	}
}

// TestTelemetrySmoke is the make telemetry-smoke CI gate: a traced 16×16
// sweep whose Chrome trace export must parse as trace-event JSON and whose
// probe series must obey the window math exactly.
func TestTelemetrySmoke(t *testing.T) {
	pats, err := traffic.ParsePatterns("uniform,tornado")
	if err != nil {
		t.Fatal(err)
	}
	points := []DesignPoint{
		{Base: tech.Electronic, Express: tech.Electronic, Hops: 0},
		{Base: tech.Electronic, Express: tech.HyPPI, Hops: 3},
	}
	sc := DefaultTelemetrySweep()
	sc.Workload.Cycles = 2000
	o := DefaultOptions()
	o.Topology.Width, o.Topology.Height = 16, 16
	results, err := TelemetrySweep(context.Background(), points, pats, sc, o,
		runner.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(points)*len(pats) {
		t.Fatalf("%d results, want %d", len(results), len(points)*len(pats))
	}

	// The trace export parses as Chrome trace-event JSON with one process
	// per cell and at least one sampled span somewhere in the sweep.
	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, ChromeProcesses(results)); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			PID *int   `json:"pid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	var meta, complete int
	for _, e := range doc.TraceEvents {
		if e.PID == nil {
			t.Fatal("trace event missing pid")
		}
		switch e.Ph {
		case "M":
			meta++
		case "X":
			complete++
		}
	}
	if meta != len(results) {
		t.Errorf("process_name events %d, want %d", meta, len(results))
	}
	if complete == 0 {
		t.Error("no sampled spans anywhere in the sweep")
	}

	// Probe CSV row counts match the window math: Stats.Cycles/W + 1
	// closed windows per cell (no evictions at this horizon).
	for _, r := range results {
		if r.Saturated {
			t.Errorf("cell %s saturated at smoke load", r.Label())
			continue
		}
		p := r.Probes
		want := r.Stats.Cycles/p.WindowClks() + 1
		if got := p.TotalWindows(); got != want {
			t.Errorf("cell %s: %d windows, want Cycles/W+1 = %d (Cycles=%d)",
				r.Label(), got, want, r.Stats.Cycles)
		}
		if p.Evicted() != 0 {
			t.Errorf("cell %s: %d windows evicted at smoke horizon", r.Label(), p.Evicted())
		}
		if r.Trace.TotalPackets != r.Stats.PacketsInjected {
			t.Errorf("cell %s: trace saw %d packets, kernel injected %d",
				r.Label(), r.Trace.TotalPackets, r.Stats.PacketsInjected)
		}
	}
}
