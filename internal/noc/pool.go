package noc

import (
	"sync"

	"repro/internal/routing"
	"repro/internal/topology"
)

// SimPool recycles Sim instances across the runs of a sweep, keyed by the
// exact (network, routing table, config) triple: a pooled Get performs a
// Reset instead of rebuilding topology-sized state, so a sweep allocates
// O(live workers) simulators instead of O(points).
//
// The pool is safe for concurrent Get/Put from multiple workers; the Sims
// it hands out are not — each Sim must stay with one goroutine between Get
// and Put, the usual per-worker reuse discipline. A Reset Sim is
// bit-identical in behavior to a fresh one (enforced by the noc reuse
// tests), so pooling preserves the repository's determinism contract.
//
// A nil *SimPool is valid and disables reuse: Get falls through to New and
// Put discards the simulator.
type SimPool struct {
	mu   sync.Mutex
	free map[simPoolKey][]*Sim
}

// simPoolKey identifies interchangeable simulators. Networks and tables
// are compared by pointer: the sweeps share one immutable instance per
// design point, which is exactly the reuse unit.
type simPoolKey struct {
	net *topology.Network
	tab *routing.Table
	cfg Config
}

// NewSimPool returns an empty pool.
func NewSimPool() *SimPool {
	return &SimPool{free: make(map[simPoolKey][]*Sim)}
}

// Get returns a Reset simulator for the triple, reusing a pooled one when
// available and building a fresh one otherwise.
func (p *SimPool) Get(net *topology.Network, tab *routing.Table, cfg Config) (*Sim, error) {
	if p != nil {
		key := simPoolKey{net: net, tab: tab, cfg: cfg}
		p.mu.Lock()
		if sims := p.free[key]; len(sims) > 0 {
			s := sims[len(sims)-1]
			sims[len(sims)-1] = nil
			p.free[key] = sims[:len(sims)-1]
			p.mu.Unlock()
			s.Reset()
			return s, nil
		}
		p.mu.Unlock()
	}
	return New(net, tab, cfg)
}

// Put returns a simulator to the pool for later reuse. The caller must not
// touch the Sim afterwards; Stats already returned by Run stay valid (see
// Sim.Reset).
func (p *SimPool) Put(s *Sim) {
	if p == nil || s == nil {
		return
	}
	key := simPoolKey{net: s.net, tab: s.tab, cfg: s.cfg}
	p.mu.Lock()
	p.free[key] = append(p.free[key], s)
	p.mu.Unlock()
}

// Run is one pooled simulation: it draws a simulator for the triple, lets
// load inject the workload (and attach observers or a fault profile),
// runs it, and returns the simulator to the pool on every path — a load
// that fails midway hands back a Sim the next Get resets like any other.
// A run that fails to drain returns its Stats with ErrSaturated.
func (p *SimPool) Run(net *topology.Network, tab *routing.Table, cfg Config, load func(*Sim) error) (Stats, error) {
	s, err := p.Get(net, tab, cfg)
	if err != nil {
		return Stats{}, err
	}
	defer p.Put(s)
	if err := load(s); err != nil {
		return Stats{}, err
	}
	return s.Run()
}
