package core

import (
	"fmt"

	"repro/internal/noc"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// fabric is one resolved (topology kind, design point) network of a
// sweep: the shared, immutable network and routing table every cell on it
// reads (and the identity noc.SimPool keys simulator reuse on).
type fabric struct {
	// kind is canonical ("" resolves to mesh).
	kind  topology.Kind
	point DesignPoint
	net   *topology.Network
	tab   *routing.Table
}

// String names the fabric for error messages: the design point, prefixed
// by the kind when it is not the mesh the point's own label names.
func (f fabric) String() string {
	if f.kind == topology.Mesh {
		return f.point.String()
	}
	return fmt.Sprintf("%v %v", f.kind, f.point)
}

// fabric resolves one design point on a kind ("" keeps the Options' kind)
// through the Options' cache. On failure the returned fabric still names
// the cell, and the error is unwrapped for the caller to label.
func (o Options) fabric(kind topology.Kind, p DesignPoint) (fabric, error) {
	if kind != "" {
		o.Topology.Kind = kind
	}
	f := fabric{kind: o.Topology.Canonical().Kind, point: p}
	var err error
	f.net, f.tab, err = o.NetworkAndTable(p)
	return f, err
}

// fabrics resolves the kind × point cross product, kind-major, before a
// sweep fans out, so the pool's jobs share it read-only. nil kinds
// selects the Options' own kind.
func (o Options) fabrics(kinds []topology.Kind, points []DesignPoint) ([]fabric, error) {
	axis := kindAxis(kinds)
	fabs := make([]fabric, 0, len(axis)*len(points))
	for _, kind := range axis {
		for _, p := range points {
			f, err := o.fabric(kind, p)
			if err != nil {
				return nil, fmt.Errorf("core: %v: %w", f, err)
			}
			fabs = append(fabs, f)
		}
	}
	return fabs, nil
}

// kindAxis is a sweep's kind axis: nil stands for the Options' own kind.
func kindAxis(kinds []topology.Kind) []topology.Kind {
	if kinds == nil {
		return []topology.Kind{""}
	}
	return kinds
}

// plainPoint is the kind-portable design point every family supports: the
// Options' base technology without express links.
func (o Options) plainPoint() DesignPoint {
	return DesignPoint{Base: o.Topology.BaseTech, Express: o.Topology.BaseTech}
}

// patternBase generates a pattern's unit-rate matrix on a network and
// checks it is a well-formed workload (no self traffic, no negative or
// non-finite rates).
func patternBase(pat traffic.Pattern, net *topology.Network) (*traffic.Matrix, error) {
	m, err := pat.Generate(net, 1)
	if err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// loadRun is one open-loop sample on the fabric: the base matrix scaled to
// rate drives Bernoulli arrivals on a pooled simulator. attach (nil for
// none) wires an observer in before the run. A run that fails to drain
// returns its Stats with noc.ErrSaturated.
func (f fabric) loadRun(base *traffic.Matrix, rate float64, w noc.BernoulliWorkload, cfg noc.Config,
	sims *noc.SimPool, attach func(*noc.Sim)) (noc.Stats, error) {
	pkts, err := w.Generate(f.net, base.ScaledToMaxRate(rate))
	if err != nil {
		return noc.Stats{}, err
	}
	return sims.Run(f.net, f.tab, cfg, func(s *noc.Sim) error {
		if err := s.InjectAll(pkts); err != nil {
			return err
		}
		if attach != nil {
			attach(s)
		}
		return nil
	})
}
