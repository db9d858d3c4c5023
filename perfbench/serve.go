package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/tech"
	"repro/internal/traffic"
)

// serveQuery is one distinct query of the serve-mixed working set.
type serveQuery struct {
	key  string
	size int
	hops int // 0: plain electronic mesh; >0: HyPPI express channels
	pat  string
	load float64
	want string
}

// request spells the query; alias picks the short, non-canonical
// spelling, which must land on the same cache entry.
func (q serveQuery) request(id string, alias bool) serve.Request {
	r := serve.Request{ID: id, Width: q.size, Height: q.size, Base: "Electronic", Express: "Electronic",
		Hops: q.hops, Pattern: q.pat, Load: q.load, Want: q.want, Topology: "mesh"}
	if q.hops > 0 {
		r.Express = "HyPPI"
	}
	if alias {
		r.Topology, r.Base = "", "E"
		if q.hops > 0 {
			r.Express = "H"
		}
		if q.want == serve.WantLatency {
			r.Want = ""
		}
		if q.size == serve.DefaultWidth {
			r.Width, r.Height = 0, 0
		}
	}
	return r
}

// streamLayoutSeed fixes where each distinct query first appears in the
// stream, and in which order.
const streamLayoutSeed = 1

// serveMixed is an in-process serve.Engine driven by closed-loop clients
// replaying a seeded JSON-lines stream: Zipf-skewed repeats over a fixed
// working set of distinct queries, each of which appears at least once.
type serveMixed struct {
	seed    int64
	queries []serveQuery
	want    map[string]string // key → reply without id; nil in quick mode
	stream  [][]byte
	of      []int  // stream index → query index
	first   []bool // stream index is its query's first occurrence
	clients int
}

func newServeMixed(seed int64, quick bool) (*serveMixed, error) {
	w := &serveMixed{seed: seed, clients: min(2, runtime.NumCPU())}
	sizes, pats, loads, n := []int{4, 8}, []string{"uniform", "transpose"}, []float64{0.01, 0.02, 0.05, 0.1, 0.15}, 2000
	if quick {
		sizes, pats, loads, n = []int{4}, []string{"uniform"}, []float64{0.01, 0.1}, 100
	}
	for _, size := range sizes {
		for _, hops := range []int{0, 3} {
			for _, pat := range pats {
				for _, load := range loads {
					for _, want := range []string{serve.WantLatency, serve.WantCLEAR, serve.WantEnergy} {
						q := serveQuery{size: size, hops: hops, pat: pat, load: load, want: want}
						q.key = fmt.Sprintf("%dx%d hops=%d %s@%v %s", size, size, hops, pat, load, want)
						w.queries = append(w.queries, q)
					}
				}
			}
		}
	}
	if !quick {
		w.want = expectedServe()
	}

	// Each query is introduced once (the first at position 0); every
	// other position repeats an introduced query with Zipf popularity.
	// Where and in which order queries first appear is the same at every
	// seed: the evaluations queue behind each other in that order, and it
	// sets the p99. The seed draws the repeats, their popularity ranking
	// and each line's spelling.
	layout := rand.New(rand.NewSource(streamLayoutSeed))
	order := layout.Perm(len(w.queries))
	intro := map[int]bool{0: true}
	for len(intro) < len(w.queries) {
		intro[layout.Intn(n)] = true
	}
	rng := rand.New(rand.NewSource(seed))
	popular := rng.Perm(len(w.queries))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(w.queries)-1))
	seen := make([]bool, len(w.queries))
	introduced := 0
	for i := 0; i < n; i++ {
		qi := popular[zipf.Uint64()]
		if intro[i] {
			qi = order[introduced]
			introduced++
			seen[qi] = true
		}
		// A repeat draws by popularity among the queries seen so far.
		for !seen[qi] {
			qi = popular[zipf.Uint64()]
		}
		w.first = append(w.first, intro[i])
		line, err := json.Marshal(w.queries[qi].request(fmt.Sprintf("q%d", i), rng.Intn(2) == 1))
		if err != nil {
			return nil, err
		}
		w.stream, w.of = append(w.stream, line), append(w.of, qi)
	}
	return w, nil
}

func (w *serveMixed) params() map[string]any {
	cfg := serve.DefaultEngineConfig()
	return map[string]any{
		"queries": len(w.stream), "distinct": len(w.queries), "clients": w.clients, "loop": "closed",
		"engine_workers": 1, "max_batch": cfg.MaxBatch, "queue_depth": cfg.QueueDepth,
		"cache_entries": cfg.CacheEntries, "sweep_workload": cfg.Sweep.Workload, "noc": cfg.Sweep.NoC,
		"stream_seed": w.seed, "zipf_s": 1.2,
	}
}

type serveState struct {
	w *serveMixed
	o core.Options
	e *serve.Engine
}

// playback is what one pass of the stream returns: each line's reply and
// timings, indexed by stream position.
type playback struct {
	replies             [][]byte
	latMs, decUs, encUs []float64
}

func (w *serveMixed) setup(tr *tracer, parent int) (state, error) {
	s := &serveState{w: w, o: core.DefaultOptions()}
	s.o.Cache = core.NewNetworkCache()
	built := map[[2]int]bool{}
	for _, q := range w.queries {
		if built[[2]int{q.size, q.hops}] {
			continue
		}
		built[[2]int{q.size, q.hops}] = true
		o := s.o
		o.Topology.Width, o.Topology.Height = q.size, q.size
		if _, _, err := setupNet(tr, parent, o, q.point()); err != nil {
			return nil, err
		}
	}
	cfg := serve.DefaultEngineConfig()
	cfg.Options, cfg.Workers = s.o, 1
	start := func() error {
		s.e = serve.NewEngine(cfg)
		return nil
	}
	if tr != nil {
		_ = tr.call("serve.new_engine", parent, "", start)
	} else {
		_ = start()
	}
	return s, nil
}

func (q serveQuery) point() core.DesignPoint {
	if q.hops == 0 {
		return core.DesignPoint{Base: tech.Electronic, Express: tech.Electronic}
	}
	return core.DesignPoint{Base: tech.Electronic, Express: tech.HyPPI, Hops: q.hops}
}

func (s *serveState) close() { s.e.Close() }

// play runs the stream through the engine with the closed-loop clients;
// each query is timed from decode to its encoded reply.
func (s *serveState) play(tr *tracer, parent int) *playback {
	n := len(s.w.stream)
	pb := &playback{replies: make([][]byte, n), latMs: make([]float64, n)}
	if tr != nil {
		pb.decUs, pb.encUs = make([]float64, n), make([]float64, n)
	}
	ctx := context.Background()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < s.w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if tr != nil {
					s.tracedQuery(tr, parent, i, pb)
					continue
				}
				t0 := time.Now()
				req, bad := serve.DecodeRequest(s.w.stream[i])
				resp := serve.Response{ID: req.ID, Error: bad}
				if bad == nil {
					resp = s.e.Do(ctx, req)
				}
				pb.replies[i] = resp.Encode()
				pb.latMs[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
			}
		}()
	}
	wg.Wait()
	return pb
}

func (s *serveState) tracedQuery(tr *tracer, parent, i int, pb *playback) {
	t0 := time.Now()
	id := tr.begin("serve.query", parent)
	var req serve.Request
	var bad *serve.Error
	_ = tr.call("serve.decode", id, "", func() error {
		req, bad = serve.DecodeRequest(s.w.stream[i])
		return nil
	})
	t1 := time.Now()
	resp := serve.Response{ID: req.ID, Error: bad}
	if bad == nil {
		_ = tr.call("serve.do", id, "", func() error {
			resp = s.e.Do(context.Background(), req)
			return nil
		})
	}
	t2 := time.Now()
	_ = tr.call("serve.encode", id, "", func() error {
		pb.replies[i] = resp.Encode()
		return nil
	})
	tr.end(id)
	t3 := time.Now()
	pb.latMs[i] = float64(t3.Sub(t0).Nanoseconds()) / 1e6
	pb.decUs[i] = float64(t1.Sub(t0).Nanoseconds()) / 1e3
	pb.encUs[i] = float64(t3.Sub(t2).Nanoseconds()) / 1e3
}

func (s *serveState) run(_ *lapper) (passOutput, error) {
	pb := s.play(nil, -1)
	return passOutput{cells: s.w.cells(pb.replies), latMs: pb.latMs}, nil
}

func (s *serveState) traced(tr *tracer, parent int) ([]cell, error) {
	pb := s.play(tr, parent)
	var repeat, first []float64
	for i, ms := range pb.latMs {
		if s.w.first[i] {
			first = append(first, ms)
		} else {
			repeat = append(repeat, ms)
		}
	}
	st := s.e.Stats()
	first = sortedCopy(first)
	for name, v := range map[string]float64{
		"serve.decode_us_p50": median(pb.decUs), "serve.encode_us_p50": median(pb.encUs),
		"serve.repeat_ms_p50": median(repeat), "serve.first_ms_p50": median(first),
		"serve.first_ms_p99": quantile(first, 0.99), "serve.hit_rate": st.HitRate(),
		"serve.evaluations": float64(st.Evaluations), "serve.batches": float64(st.Batches),
		"serve.mean_batch": float64(st.Evaluations) / float64(max(st.Batches, 1)),
		"serve.rejected":   float64(st.Rejected),
	} {
		tr.add(name, v)
	}
	return s.w.cells(pb.replies), nil
}

// cells lists every reply with its query's key.
func (w *serveMixed) cells(replies [][]byte) []cell {
	cells := make([]cell, len(replies))
	for i, r := range replies {
		cells[i] = cell{Key: w.queries[w.of[i]].key, Text: string(r)}
	}
	return cells
}

// replyText strips the echoed id from a reply, leaving the reply the
// query gets when asked alone without an id.
func replyText(reply string, id string) (string, bool) {
	prefix := `{"id":"` + id + `",`
	if len(reply) < len(prefix) || reply[:len(prefix)] != prefix {
		return "", false
	}
	return "{" + reply[len(prefix):], true
}

// check: every reply must be ok and equal the stored reply of its query
// answered alone; in quick mode, equal the other replies to that query.
func (w *serveMixed) check(cells []cell) (attempted, failed int) {
	seen := map[string]string{}
	for i, c := range cells {
		text, ok := replyText(c.Text, fmt.Sprintf("q%d", i))
		want, known := w.want[c.Key]
		if w.want == nil {
			want, known = seen[c.Key]
			if !known {
				seen[c.Key], want, known = text, text, true
			}
		}
		if !ok || !known || text != want || !bytes.HasPrefix([]byte(text), []byte(`{"ok":true,`)) {
			failed++
		}
	}
	return len(cells), failed
}

// flitHops regenerates each distinct query's Bernoulli packets and sums
// their routes: the engine evaluates every distinct query once per pass.
func (w *serveMixed) flitHops(st state) (int64, error) {
	s := st.(*serveState)
	sweep := serve.DefaultEngineConfig().Sweep
	var sum int64
	for _, q := range w.queries {
		o := s.o
		o.Topology.Width, o.Topology.Height = q.size, q.size
		net, tab, err := o.NetworkAndTable(q.point())
		if err != nil {
			return 0, err
		}
		pat, err := traffic.Lookup(q.pat)
		if err != nil {
			return 0, err
		}
		n, err := bernoulliFlitHops(net, tab, pat, q.load, sweep.Workload)
		if err != nil {
			return 0, err
		}
		sum += n
	}
	return sum, nil
}

// answerAlone evaluates every distinct query on its own fresh engine: the
// stored replies the stream's answers must equal.
func (w *serveMixed) answerAlone() (map[string]string, error) {
	out := map[string]string{}
	for _, q := range w.queries {
		cfg := serve.DefaultEngineConfig()
		cfg.Workers = 1
		e := serve.NewEngine(cfg)
		resp := e.Do(context.Background(), q.request("", false))
		e.Close()
		if !resp.OK || resp.Result.Saturated {
			return nil, fmt.Errorf("query %s: not a clean answer: %s", q.key, resp.Encode())
		}
		out[q.key] = string(resp.Encode())
	}
	return out, nil
}
