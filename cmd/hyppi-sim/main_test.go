package main

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/taskgraph"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TestUsageListsRegisteredNames: adding a pattern, topology kind or
// task-graph generator to the registries must surface it in -h, not
// leave the usage text stale.
func TestUsageListsRegisteredNames(t *testing.T) {
	for _, name := range traffic.Names() {
		if !strings.Contains(patternUsage, name) {
			t.Errorf("-pattern usage misses registered pattern %q: %s", name, patternUsage)
		}
	}
	for _, name := range topology.Names() {
		if !strings.Contains(topologyUsage, string(name)) {
			t.Errorf("-topology usage misses registered kind %q: %s", name, topologyUsage)
		}
	}
	for _, name := range taskgraph.Names() {
		if !strings.Contains(taskgraphUsage, name) {
			t.Errorf("-taskgraph usage misses registered generator %q: %s", name, taskgraphUsage)
		}
	}
}

func TestSweepPoints(t *testing.T) {
	mesh := []topology.Kind{topology.Mesh}
	plain := core.DesignPoint{Base: tech.Electronic, Express: tech.Electronic}
	hop := func(h int) core.DesignPoint {
		return core.DesignPoint{Base: tech.Electronic, Express: tech.HyPPI, Hops: h}
	}
	cases := []struct {
		name  string
		kinds []topology.Kind
		width int
		want  []core.DesignPoint
	}{
		{"W=4 rung 3 is the closure", mesh, 4, []core.DesignPoint{plain, hop(3)}},
		{"W=8", mesh, 8, []core.DesignPoint{plain, hop(3), hop(5), hop(7)}},
		{"W=16", mesh, 16, []core.DesignPoint{plain, hop(3), hop(5), hop(15)}},
		{"torus", []topology.Kind{topology.Torus}, 8, []core.DesignPoint{plain}},
		{"mesh among kinds", []topology.Kind{topology.Mesh, topology.FBFly}, 8, []core.DesignPoint{plain}},
	}
	for _, c := range cases {
		if got := sweepPoints(c.kinds, c.width, tech.HyPPI); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestChooseMode(t *testing.T) {
	cases := []struct {
		flags modeFlags
		want  mode
		err   bool
	}{
		{modeFlags{}, modeTrace, false},
		{modeFlags{pattern: "uniform"}, modeLoad, false},
		{modeFlags{pattern: "uniform", energy: true}, modeLoad, false},
		{modeFlags{pattern: "uniform", faults: true}, modeFaults, false},
		{modeFlags{pattern: "uniform", traceOut: "t.json"}, modeTelemetry, false},
		{modeFlags{taskgraph: "all"}, modeTaskGraph, false},
		{modeFlags{taskgraph: "all", pattern: "uniform"}, 0, true},
		{modeFlags{taskgraph: "all", energy: true}, 0, true},
		{modeFlags{taskgraph: "all", faults: true}, 0, true},
		{modeFlags{taskgraph: "all", traceOut: "t.json"}, 0, true},
		{modeFlags{pattern: "uniform", traceOut: "t.json", faults: true}, 0, true},
		{modeFlags{pattern: "uniform", faults: true, energy: true}, 0, true},
		{modeFlags{pattern: "uniform", traceOut: "t.json", energy: true}, 0, true},
		{modeFlags{energy: true}, 0, true},
		{modeFlags{faults: true}, 0, true},
		{modeFlags{traceOut: "t.json"}, 0, true},
	}
	for _, c := range cases {
		got, err := chooseMode(c.flags)
		if c.err {
			if !errors.Is(err, errModeFlags) {
				t.Errorf("%+v: got mode %v, err %v; want errModeFlags", c.flags, got, err)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("%+v: got mode %v, err %v; want %v", c.flags, got, err, c.want)
		}
	}
}
