package main

import (
	"container/heap"
	"fmt"
	"math"
	"slices"

	"smrp/internal/core"
	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/hierarchy"
	"smrp/internal/topology"
)

// coreDriver calls flat core.Sessions directly. Session i lives on graph
// graphOf(i); a new session is made for every pass.
type coreDriver struct {
	cfg      core.Config
	graphOf  func(sess int) *graph.Graph
	sessions []*core.Session
	ref      *reference
	leafCuts bool // cut a member's own uplink instead of its worst case
}

func newCoreDriver(cfg core.Config, n int, graphOf func(int) *graph.Graph) *coreDriver {
	return &coreDriver{cfg: cfg, graphOf: graphOf, sessions: make([]*core.Session, n), ref: newReference()}
}

func (d *coreDriver) open(sess int, source graph.NodeID) error {
	s, err := core.NewSession(d.graphOf(sess), source, d.cfg)
	d.sessions[sess] = s
	return err
}

func (d *coreDriver) closeAll() {
	for i := range d.sessions {
		d.sessions[i] = nil
	}
}

func (d *coreDriver) join(sess int, n graph.NodeID) (out, error) {
	r, err := d.sessions[sess].Join(n)
	return out{joins: []*core.JoinResult{r}}, err
}

func (d *coreDriver) joinBatch(sess int, ns []graph.NodeID) (out, error) {
	rs, errs := d.sessions[sess].JoinBatch(ns)
	for _, err := range errs {
		if err != nil {
			return out{joins: rs}, err
		}
	}
	return out{joins: rs}, nil
}

func (d *coreDriver) leave(sess int, n graph.NodeID) error { return d.sessions[sess].Leave(n) }

func healOut(r *core.HealReport) out {
	if r == nil {
		return out{}
	}
	return out{recovered: r.RecoveryDistance, disconnected: r.Disconnected, unrecovered: r.Unrecovered, readmitted: r.Readmitted}
}

func (d *coreDriver) restore(sess int, l link) (out, error) {
	r, err := d.sessions[sess].Recover(failure.LinkDown(l.a, l.b))
	return healOut(r), err
}

func (d *coreDriver) repair(sess int, l link) (out, error) {
	r, err := d.sessions[sess].Repair(failure.LinkDown(l.a, l.b))
	if err != nil {
		return out{}, err
	}
	return out{readmitted: r.Readmitted, unrecovered: r.StillParked}, nil
}

func (d *coreDriver) get(sess int) (out, error) {
	snap := d.sessions[sess].Snapshot()
	return out{snap: &snap}, nil
}

func (d *coreDriver) session(sess int, _ graph.NodeID) (*core.Session, func(graph.NodeID) graph.NodeID, error) {
	return d.sessions[sess], func(n graph.NodeID) graph.NodeID { return n }, nil
}

// cutFor is the paper's worst case for m (§4.3.1): the tree link incident
// to the source on m's path. With leafCuts it is m's own uplink, which takes
// down m's subtree only.
func (d *coreDriver) cutFor(sess int, m graph.NodeID) (link, error) {
	if d.leafCuts {
		p, ok := d.sessions[sess].Tree().Parent(m)
		if !ok || p == graph.Invalid {
			return link{}, fmt.Errorf("member %d has no uplink", m)
		}
		return link{p, m}, nil
	}
	f, err := failure.WorstCaseFor(d.sessions[sess].Tree(), m)
	return link{f.Edge.A, f.Edge.B}, err
}

func (d *coreDriver) check(sess int, want []graph.NodeID) error {
	return checkSession(d.sessions[sess], want)
}

func (d *coreDriver) fold(h *hasher, sess int) { foldSession(h, d.sessions[sess]) }

func (d *coreDriver) flat() []*core.Session { return d.sessions }

func (d *coreDriver) stretch(sess int, members []graph.NodeID) (float64, int, error) {
	s := d.sessions[sess]
	dist := d.ref.dist(s.Graph(), s.Tree().Source(), noLink)
	var sum float64
	n := 0
	for _, m := range members {
		if !s.Tree().IsMember(m) {
			continue
		}
		td, err := s.Tree().DelayTo(m)
		if err != nil {
			return 0, 0, err
		}
		if dist[m] > 0 {
			sum += td / dist[m]
			n++
		}
	}
	return sum, n, nil
}

// checkSession holds a flat session to the invariants the paper states:
// the tree is a tree, and every member the schedule put there is on it or
// parked, never both and never neither.
func checkSession(s *core.Session, want []graph.NodeID) error {
	if err := s.Tree().Validate(); err != nil {
		return err
	}
	for _, m := range want {
		if s.Tree().IsMember(m) == s.IsParked(m) {
			return fmt.Errorf("member %d: on tree %v, parked %v", m, s.Tree().IsMember(m), s.IsParked(m))
		}
	}
	return nil
}

// foldSession hashes what a session has built: tree edges, members, parked
// set, and the counters that count outcomes (not work).
func foldSession(h *hasher, s *core.Session) {
	for _, e := range s.Tree().Edges() {
		h.node(e.A)
		h.node(e.B)
	}
	ms := s.Tree().Members()
	slices.Sort(ms)
	h.nodes(ms)
	h.nodes(s.Parked())
	st := s.Stats()
	for _, c := range []int{st.Joins, st.Leaves, st.Reshapes, st.Parks, st.Readmissions} {
		h.word(uint64(c))
	}
}

// hierDriver drives one hierarchy.NLevelSession that lives as long as the
// environment; a pass ends with every member gone and every cut repaired, so
// the next one starts from the same state. sess is always 0.
type hierDriver struct {
	topo   *topology.NLevelTopology
	hs     *hierarchy.NLevelSession
	source graph.NodeID
	ref    *reference

	// bypass sends restores straight to the domain's flat session, skipping
	// the hierarchy's own attribution: the traced run's second arm.
	bypass bool
}

func (d *hierDriver) open(int, graph.NodeID) error { return nil }

// closeAll takes out whoever a pass left in (one that stopped at the
// standing point leaves everybody), so the next pass starts empty.
func (d *hierDriver) closeAll() {
	for _, m := range d.hs.Members() {
		_ = d.hs.Leave(m) // a member just listed can leave
	}
}

func (d *hierDriver) join(_ int, n graph.NodeID) (out, error) { return out{}, d.hs.Join(n) }

func (d *hierDriver) joinBatch(int, []graph.NodeID) (out, error) {
	return out{}, fmt.Errorf("hierarchy has no batch join")
}

func (d *hierDriver) leave(_ int, n graph.NodeID) error { return d.hs.Leave(n) }

// domainOf is the domain whose session owns link l: the deepest domain
// holding both ends, the parent's for a gateway uplink.
func (d *hierDriver) domainOf(l link) (int, error) {
	da, db := d.topo.DomainOf(l.a), d.topo.DomainOf(l.b)
	switch {
	case da < 0 || db < 0:
		return 0, fmt.Errorf("link %d-%d outside every domain", l.a, l.b)
	case da == db || d.topo.Domains[db].Parent == da:
		return da, nil
	case d.topo.Domains[da].Parent == db:
		return db, nil
	}
	return 0, fmt.Errorf("link %d-%d spans unrelated domains", l.a, l.b)
}

// local returns the flat session owning l and l in that session's IDs.
func (d *hierDriver) local(l link) (*core.Session, failure.Failure, error) {
	di, err := d.domainOf(l)
	if err != nil {
		return nil, failure.Failure{}, err
	}
	ds, nm, err := d.hs.DomainSession(di)
	if err != nil {
		return nil, failure.Failure{}, err
	}
	a, okA := nm.ToSub(l.a)
	b, okB := nm.ToSub(l.b)
	if !okA || !okB {
		return nil, failure.Failure{}, fmt.Errorf("link %d-%d not in domain %d", l.a, l.b, di)
	}
	return ds, failure.LinkDown(a, b), nil
}

func (d *hierDriver) restore(_ int, l link) (out, error) {
	if d.bypass {
		ds, f, err := d.local(l)
		if err != nil {
			return out{}, err
		}
		r, err := ds.Recover(f)
		return healOut(r), err
	}
	r, err := d.hs.Recover(failure.LinkDown(l.a, l.b))
	if err != nil {
		return out{}, err
	}
	return healOut(r.Heal), nil
}

// repair goes to the domain session: the N-level session has no Repair of
// its own.
func (d *hierDriver) repair(_ int, l link) (out, error) {
	ds, f, err := d.local(l)
	if err != nil {
		return out{}, err
	}
	r, err := ds.Repair(f)
	if err != nil {
		return out{}, err
	}
	return out{readmitted: r.Readmitted, unrecovered: r.StillParked}, nil
}

func (d *hierDriver) get(int) (out, error) { return out{}, fmt.Errorf("hierarchy has no snapshot") }

func (d *hierDriver) session(_ int, n graph.NodeID) (*core.Session, func(graph.NodeID) graph.NodeID, error) {
	ds, nm, err := d.hs.DomainSession(d.topo.DomainOf(n))
	if err != nil {
		return nil, nil, err
	}
	return ds, func(n graph.NodeID) graph.NodeID {
		sub, ok := nm.ToSub(n)
		if !ok {
			return graph.Invalid
		}
		return sub
	}, nil
}

// cutFor is the same worst case inside m's own domain: the link incident to
// the domain session's root on m's path there (the megascale study's branch
// cut).
func (d *hierDriver) cutFor(_ int, m graph.NodeID) (link, error) {
	ds, nm, err := d.hs.DomainSession(d.topo.DomainOf(m))
	if err != nil {
		return link{}, err
	}
	sub, _ := nm.ToSub(m)
	f, err := failure.WorstCaseFor(ds.Tree(), sub)
	if err != nil {
		return link{}, err
	}
	a, _ := nm.ToFull(f.Edge.A)
	b, _ := nm.ToFull(f.Edge.B)
	return link{a, b}, nil
}

func (d *hierDriver) check(_ int, want []graph.NodeID) error {
	if err := d.hs.Validate(); err != nil {
		return err
	}
	for _, m := range want {
		ds, toSub, err := d.session(0, m)
		if err != nil {
			return err
		}
		if sub := toSub(m); ds.Tree().IsMember(sub) == ds.IsParked(sub) {
			return fmt.Errorf("member %d: on tree %v, parked %v", m, ds.Tree().IsMember(sub), ds.IsParked(sub))
		}
	}
	return nil
}

func (d *hierDriver) fold(h *hasher, _ int) {
	h.nodes(d.hs.Members())
	for i := 0; i < d.hs.NumDomains(); i++ {
		ds, _, _ := d.hs.DomainSession(i)
		for _, e := range ds.Tree().Edges() {
			h.node(e.A)
			h.node(e.B)
		}
		h.nodes(ds.Parked())
	}
}

func (d *hierDriver) flat() []*core.Session {
	all := make([]*core.Session, d.hs.NumDomains())
	for i := range all {
		all[i], _, _ = d.hs.DomainSession(i)
	}
	return all
}

func (d *hierDriver) stretch(_ int, members []graph.NodeID) (float64, int, error) {
	dist := d.ref.dist(d.topo.Graph, d.source, noLink)
	var sum float64
	n := 0
	for _, m := range members {
		td, err := d.hs.EndToEndDelay(m)
		if err != nil {
			return 0, 0, err
		}
		if dist[m] > 0 {
			sum += td / dist[m]
			n++
		}
	}
	return sum, n, nil
}

// reference is the benchmark's own shortest-path computation, independent of
// the repository's: a plain container/heap Dijkstra over Graph.Neighbors.
// Outputs are checked against it.
type reference struct {
	key  refKey // the last tree asked for is kept: checks go session by session
	last []float64
}

type refKey struct {
	g   *graph.Graph
	src graph.NodeID
	cut link
}

func newReference() *reference { return &reference{} }

type refItem struct {
	d float64
	n graph.NodeID
}
type refHeap []refItem

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// noLink cuts nothing.
var noLink = link{graph.Invalid, graph.Invalid}

// dist returns shortest-path delays from src with link cut removed (noLink
// for none). Unreachable nodes read +Inf.
func (r *reference) dist(g *graph.Graph, src graph.NodeID, cut link) []float64 {
	key := refKey{g, src, cut}
	if r.last != nil && r.key == key {
		return r.last
	}
	d := make([]float64, g.NumNodes())
	for i := range d {
		d[i] = math.Inf(1)
	}
	d[src] = 0
	h := &refHeap{{0, src}}
	for h.Len() > 0 {
		it := heap.Pop(h).(refItem)
		if it.d > d[it.n] {
			continue
		}
		for _, a := range g.Neighbors(it.n) {
			if (it.n == cut.a && a.To == cut.b) || (it.n == cut.b && a.To == cut.a) {
				continue
			}
			if nd := it.d + a.Weight; nd < d[a.To] {
				d[a.To] = nd
				heap.Push(h, refItem{nd, a.To})
			}
		}
	}
	r.key, r.last = key, d
	return d
}
