package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"time"
)

type result struct {
	metrics              map[string]float64
	attempted, failed    int
	passes, tracedPasses int
	tr                   *tracer
}

// passSample is what one untraced pass measured and checked.
type passSample struct {
	setups                []float64
	wall, allocMB, liveMB float64
	latMs                 []float64
	attempted, failed     int
	digest                []uint64 // of the outputs
	flitHops              int64
}

// measure repeats passes while the next one fits in the budget, at least
// one of each kind. A traced run alternates untraced and traced passes:
// the untraced ones give the wall time the tracing overhead is taken
// against and the outputs the traced ones must reproduce.
func measure(w workload, budget time.Duration, traced bool, log io.Writer) (result, error) {
	res := result{metrics: map[string]float64{}}
	if traced {
		res.tr = newTracer()
	}
	var (
		first                    passSample
		setups, walls, hopRates  []float64
		allocs, lives, qps, p99s []float64
		lats                     []float64
		tracedWalls              []float64
		layers                   = map[string][]float64{}
		lastUntraced, lastTraced time.Duration
	)
	start := time.Now()
	for pass := 0; ; pass++ {
		t0 := time.Now()
		if traced && pass%2 == 1 {
			cells, m, wall, err := tracedPass(w, res.tr, pass)
			if err != nil {
				return res, err
			}
			// The traced pipeline must reproduce the untraced outputs bit
			// for bit, and count the channel traversals flitHops computed.
			res.attempted += len(cells)
			res.failed += countDigestMismatches(digest(cells), first.digest)
			if m["noc.flit_hops"] > 0 {
				if int64(m["noc.flit_hops"]) != first.flitHops {
					res.failed++
					fmt.Fprintf(log, "perfbench: traced run simulated %v flit-hops, routes give %d\n",
						m["noc.flit_hops"], first.flitHops)
				}
				m["noc.run_ns_per_flit_hop"] = m["noc.run_s"] * 1e9 / m["noc.flit_hops"]
			}
			for k, v := range m {
				layers[k] = append(layers[k], v)
			}
			tracedWalls = append(tracedWalls, wall)
			res.tracedPasses++
			lastTraced = time.Since(t0)
		} else {
			p, err := untracedPass(w, res.passes == 0)
			if err != nil {
				return res, err
			}
			if res.passes == 0 {
				first = p
			}
			res.attempted, res.failed = res.attempted+p.attempted, res.failed+p.failed
			setups = append(setups, p.setups...)
			walls = append(walls, p.wall)
			hopRates = append(hopRates, float64(first.flitHops)/p.wall)
			allocs = append(allocs, p.allocMB)
			lives = append(lives, p.liveMB)
			qps = append(qps, float64(len(p.latMs))/p.wall)
			lats = append(lats, p.latMs...)
			p99s = append(p99s, quantile(sortedCopy(p.latMs), 0.99))
			res.passes++
			lastUntraced = time.Since(t0)
			fmt.Fprintf(log, "perfbench: pass %d wall %.3fs setup %.4fs\n", pass, p.wall, median(p.setups))
		}
		done := res.passes > 0 && (!traced || res.tracedPasses > 0)
		if done && time.Since(start)+max(lastUntraced, lastTraced) > budget {
			break
		}
	}
	for name, vs := range map[string][]float64{
		"setup_s": setups, "wall_s": walls, "flit_hops_per_s": hopRates, "alloc_mb": allocs,
		"live_heap_mb": lives, "qps": qps, "latency_p99_ms": p99s,
	} {
		res.metrics[name] = median(vs)
	}
	// The median latency pools every result of every untraced pass. The
	// p99 is taken per pass, like the other metrics: pooled, it would be
	// the single slowest cell of the run on the simulation workloads.
	res.metrics["latency_p50_ms"] = quantile(sortedCopy(lats), 0.5)
	for name, vs := range layers {
		res.metrics[name] = median(vs)
	}
	if traced {
		res.metrics["bench.trace_overhead_s"] = median(tracedWalls) - median(walls)
	}
	return res, nil
}

// untracedPass sets up, times one pass and checks its outputs. The first
// pass of a run also keeps a digest of its outputs and computes the
// pass's flit-hop count.
func untracedPass(w workload, first bool) (passSample, error) {
	var p passSample
	// Returning freed memory to the OS before every set-up gives each
	// pass the same memory state, whatever the last pass left.
	debug.FreeOSMemory()
	var st state
	for k := 0; k < setupRepeats; k++ {
		if st != nil {
			st.close()
		}
		t := time.Now()
		var err error
		if st, err = w.setup(nil, -1); err != nil {
			return p, err
		}
		p.setups = append(p.setups, time.Since(t).Seconds())
	}
	defer st.close()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t := time.Now()
	out, err := st.run(&lapper{})
	p.wall = time.Since(t).Seconds()
	if err != nil {
		return p, err
	}
	runtime.ReadMemStats(&after)
	p.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6

	p.attempted, p.failed = w.check(out.cells)
	if first {
		p.digest = digest(out.cells)
		if p.flitHops, err = w.flitHops(st); err != nil {
			return p, err
		}
	}
	p.latMs = out.latMs
	// Live heap with the pass's state (results, caches, engine) reachable;
	// the output cells are dead from here on. The second collection frees
	// what sync.Pool victim caches kept alive through the first.
	runtime.GC()
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	runtime.KeepAlive(st)
	p.liveMB = float64(live.HeapAlloc) / 1e6
	return p, nil
}

// tracedPass sets up and runs one pass through the traced pipeline and
// derives its per-layer metrics from the spans.
func tracedPass(w workload, tr *tracer, pass int) ([]cell, map[string]float64, float64, error) {
	debug.FreeOSMemory()
	tr.startPass(pass)
	root := tr.begin("pass", -1)
	setup := tr.begin("setup", root)
	st, err := w.setup(tr, setup)
	tr.end(setup)
	if err != nil {
		return nil, nil, 0, err
	}
	defer st.close()
	runtime.GC()
	t := time.Now()
	body := tr.begin("run", root)
	cells, err := st.traced(tr, body)
	tr.end(body)
	wall := time.Since(t).Seconds()
	tr.end(root)
	if err != nil {
		return nil, nil, 0, err
	}
	return cells, tr.layerMetrics(pass), wall, nil
}
