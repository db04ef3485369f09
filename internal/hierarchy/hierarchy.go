// Package hierarchy implements the paper's hierarchical recovery
// architecture (§3.3.3, Figure 6) at any depth: the network is a tree of
// recovery domains, every domain runs its own SMRP sub-session over its
// nodes plus its children's gateways, agents relay the stream across
// levels, and a failure is recovered entirely inside the domain(s) it
// touches. This bounds the scope of tree reconfiguration and makes SMRP
// scale to large networks.
//
// A transit–stub topology is the two-level case, and GenerateTransitStub
// builds it as one: every stub is a level-1 domain whose agent is its
// gateway router, and the transit core plus those agents is the level-0
// domain. The gateway of the
// domain holding the true source relays the stream up into its parent's
// session (A₁ in Figure 6), and so on up the source's chain of domains.
package hierarchy

import (
	"errors"
	"fmt"
	"slices"

	"smrp/internal/core"
	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/topology"
)

// Errors returned by NLevelSession operations.
var (
	// ErrUnknownNode is returned when a node belongs to no recovery domain.
	ErrUnknownNode = errors.New("hierarchy: node belongs to no recovery domain")
	// ErrFailureOutsideDomains is returned when a failure cannot be
	// attributed to a domain: an end in no domain, a link between unrelated
	// domains, or an unknown failure kind.
	ErrFailureOutsideDomains = errors.New("hierarchy: failure outside all recovery domains")
	// ErrDomainNotContiguous is returned when a domain's nodes are not one
	// ascending run of consecutive IDs, the shape a domain view needs.
	ErrDomainNotContiguous = errors.New("hierarchy: domain nodes are not one contiguous ascending ID range")
)

// domainSession is one recovery domain's sub-multicast tree, built over a
// view of the topology's graph: the domain's nodes plus its children's
// gateways.
type domainSession struct {
	session *core.Session
	nm      *graph.NodeMap
}

// newDomainSession builds domain d's sub-session over a view of t's graph,
// rooted at root (a full-graph ID). The view's own SPF cache serves the
// session's joins and holds nothing until the first.
func newDomainSession(t *topology.NLevelTopology, d *topology.NLevelDomain, root graph.NodeID, cfg core.Config) (*domainSession, error) {
	base := d.Nodes[0]
	for i, n := range d.Nodes {
		if n != base+graph.NodeID(i) {
			return nil, fmt.Errorf("node %d at position %d: %w", n, i, ErrDomainNotContiguous)
		}
	}
	gateways := make([]graph.NodeID, len(d.Children))
	for j, c := range d.Children {
		gateways[j] = t.Domains[c].Gateway
	}
	sub, nm, err := t.Graph.View(base, len(d.Nodes), gateways)
	if err != nil {
		return nil, err
	}
	ds := &domainSession{nm: nm}
	if ds.session, err = core.NewSession(sub, ds.local(root), cfg); err != nil {
		return nil, err
	}
	return ds, nil
}

// local returns full-graph node n's ID in the domain's session, Invalid when
// the session does not hold n.
func (d *domainSession) local(n graph.NodeID) graph.NodeID {
	l, _ := d.nm.ToSub(n)
	return l
}

// NLevelSession is a hierarchical SMRP session over an N-level domain tree
// (the extension §3.3.3 sketches; transit–stub is N = 2).
type NLevelSession struct {
	topo *topology.NLevelTopology

	// sessions[i] is domain i's sub-session; sourceChain lists domain
	// indices from the source's domain up to the root.
	sessions    []*domainSession
	sourceChain []int
	onChain     map[int]bool
	members     map[graph.NodeID]bool
}

// NewNLevel builds an N-level session over t with the true source at src,
// which may live in any domain.
func NewNLevel(t *topology.NLevelTopology, src graph.NodeID, cfg core.Config) (*NLevelSession, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	srcDom := t.DomainOf(src)
	if srcDom < 0 {
		return nil, fmt.Errorf("hierarchy: source %d: %w", src, ErrUnknownNode)
	}
	s := &NLevelSession{
		topo:    t,
		onChain: make(map[int]bool),
		members: make(map[graph.NodeID]bool),
	}
	for d := srcDom; d != -1; d = t.Domains[d].Parent {
		s.sourceChain = append(s.sourceChain, d)
		s.onChain[d] = true
	}

	// Build every domain's sub-session. The session graph is a view of the
	// topology covering the domain's nodes plus its children's gateways,
	// aliasing the topology's own rows. The root of the session:
	//   - the true source, in the source's own domain;
	//   - the gateway of the chain child, in ancestors of the source domain
	//     (the relaying agent, Figure 6's A₁ generalized);
	//   - the domain's own gateway everywhere else (data arrives from the
	//     parent through it).
	s.sessions = make([]*domainSession, len(t.Domains))
	for i := range t.Domains {
		d := &t.Domains[i]
		root := d.Gateway
		switch {
		case i == srcDom:
			root = src
		case s.onChain[i]:
			root = t.Domains[s.chainChild(i)].Gateway
		}
		ds, err := newDomainSession(t, d, root, cfg)
		if err != nil {
			return nil, fmt.Errorf("hierarchy: domain %d: %w", i, err)
		}
		s.sessions[i] = ds
	}

	// Wire the upward relay chain: in every source-chain domain with a
	// parent, the domain's own gateway joins as a member so it can push the
	// stream up into the parent's session (where it is the root).
	for _, i := range s.sourceChain {
		d := &t.Domains[i]
		if d.Parent == -1 {
			continue
		}
		ds := s.sessions[i]
		if gw := ds.local(d.Gateway); !ds.session.Tree().IsMember(gw) {
			if _, err := ds.session.Join(gw); err != nil {
				return nil, fmt.Errorf("hierarchy: relay agent of domain %d: %w", i, err)
			}
		}
	}
	return s, nil
}

// chainChild returns the source-chain child of chain domain i.
func (s *NLevelSession) chainChild(i int) int {
	for k, d := range s.sourceChain {
		if d == i && k > 0 {
			return s.sourceChain[k-1]
		}
	}
	return -1
}

// Join admits receiver n; agents along the path toward the root join their
// parent sessions transparently as needed. A receiver (or an agent above it)
// that the accumulated failures cut off is admitted in the degraded state:
// the domain session parks it, n is a member and is listed by Parked, the
// rest of the chain is still hooked, and the wrapped core.ErrPartitioned is
// returned; the repair that reconnects it re-admits it.
func (s *NLevelSession) Join(n graph.NodeID) error {
	if s.members[n] {
		return fmt.Errorf("hierarchy: join %d: %w", n, core.ErrAlreadyMember)
	}
	di := s.topo.DomainOf(n)
	if di < 0 {
		return fmt.Errorf("hierarchy: join %d: %w", n, ErrUnknownNode)
	}
	ds, l := s.sessions[di], s.sessions[di].local(n)
	var degraded error
	if !ds.session.Tree().IsMember(l) { // a source-chain gateway is already a relay member
		_, err := ds.session.Join(l)
		if err != nil && !errors.Is(err, core.ErrPartitioned) {
			return fmt.Errorf("hierarchy: join %d in domain %d: %w", n, di, err)
		}
		degraded = err
	}
	s.members[n] = true
	// Hook the domain chain into the delivery structure: for every domain
	// from n's up to (but excluding) the first that already carries the
	// stream, the domain's gateway joins the parent session.
	for d := di; !s.onChain[d]; d = s.topo.Domains[d].Parent {
		gw := s.topo.Domains[d].Gateway
		ps := s.sessions[s.topo.Domains[d].Parent]
		pgw, pt := ps.local(gw), ps.session.Tree()
		if pt.IsMember(pgw) || ps.session.IsParked(pgw) || pgw == pt.Source() {
			break // already delivered (or waiting for a repair) here
		}
		_, err := ps.session.Join(pgw)
		if err != nil && !errors.Is(err, core.ErrPartitioned) {
			// The agent itself is down and the parent never carried it: no
			// repair would bring the stream here, so refuse the receiver.
			// (Only off-chain domains get here, and there n was joined or
			// parked just above.)
			delete(s.members, n)
			_ = ds.session.Leave(l)
			return fmt.Errorf("hierarchy: join %d: agent %d join domain %d: %w", n, gw, s.topo.Domains[d].Parent, err)
		}
		if degraded == nil {
			degraded = err
		}
	}
	if degraded != nil {
		return fmt.Errorf("hierarchy: join %d: %w", n, degraded)
	}
	return nil
}

// Leave removes receiver n. Agent chains are left in place (they expire via
// soft state in a deployment; Validate tolerates relay-only domains).
func (s *NLevelSession) Leave(n graph.NodeID) error {
	if !s.members[n] {
		return fmt.Errorf("hierarchy: leave %d: %w", n, core.ErrNotMember)
	}
	di := s.topo.DomainOf(n)
	// A source-chain gateway stays connected as the relay agent even when it
	// stops being a receiver itself.
	if !(s.onChain[di] && n == s.topo.Domains[di].Gateway) {
		if err := s.sessions[di].session.Leave(s.sessions[di].local(n)); err != nil {
			return err
		}
	}
	delete(s.members, n)
	return nil
}

// Members returns the receivers in ascending order.
func (s *NLevelSession) Members() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(s.members))
	for m := range s.members {
		out = append(out, m)
	}
	slices.Sort(out)
	return out
}

// DomainSession exposes domain i's sub-session and node map.
func (s *NLevelSession) DomainSession(i int) (*core.Session, *graph.NodeMap, error) {
	if i < 0 || i >= len(s.sessions) {
		return nil, nil, fmt.Errorf("hierarchy: no domain %d", i)
	}
	return s.sessions[i].session, s.sessions[i].nm, nil
}

// WorstCaseFor returns the paper's worst-case failure for receiver m confined
// to m's own recovery domain, in full-graph IDs: failure.WorstCaseFor on the
// domain's sub-tree, the link from the domain session's root to the top of
// m's branch there. It fails with core.ErrPartitioned while m is parked in
// its domain, and as failure.WorstCaseFor does when m is that session's root.
func (s *NLevelSession) WorstCaseFor(m graph.NodeID) (failure.Failure, error) {
	di := s.topo.DomainOf(m)
	if di < 0 {
		return failure.Failure{}, fmt.Errorf("hierarchy: worst case for %d: %w", m, ErrUnknownNode)
	}
	ds := s.sessions[di]
	sub := ds.local(m)
	if ds.session.IsParked(sub) {
		return failure.Failure{}, fmt.Errorf("hierarchy: worst case for %d: %w", m, core.ErrPartitioned)
	}
	f, err := failure.WorstCaseFor(ds.session.Tree(), sub)
	if err != nil {
		return failure.Failure{}, fmt.Errorf("hierarchy: domain %d: %w", di, err)
	}
	a, _ := ds.nm.ToFull(f.Edge.A)
	b, _ := ds.nm.ToFull(f.Edge.B)
	return failure.LinkDown(a, b), nil
}

// EndToEndDelay computes the delivery delay to member m across the domain
// hierarchy: up the source chain agent by agent to the deepest common
// ancestor, then down the member's chain gateway by gateway. It fails with
// core.ErrPartitioned exactly when m is degraded (see Parked).
func (s *NLevelSession) EndToEndDelay(m graph.NodeID) (float64, error) {
	if !s.members[m] {
		return 0, fmt.Errorf("hierarchy: delay %d: %w", m, core.ErrNotMember)
	}
	var cum float64
	for _, l := range s.route(nil, m) {
		if s.cut(l) {
			return 0, fmt.Errorf("hierarchy: node %d in domain %d: %w", l.n, l.d, core.ErrPartitioned)
		}
		ds := s.sessions[l.d]
		v, err := ds.session.Tree().DelayTo(ds.local(l.n))
		if err != nil {
			return 0, err
		}
		cum += v
	}
	return cum, nil
}

// leg is one domain's share of a delivery route: domain d carries the stream
// from its session root to n (full IDs).
type leg struct {
	d int
	n graph.NodeID
}

// route appends m's delivery legs to buf in delivery order. The source chain
// reaches the root, so m's chain, climbed gateway by gateway, meets it at the
// deepest common ancestor: the route ascends the source chain to there, each
// domain relaying from its session root to its gateway, the root of the
// parent's session, and descends m's chain to m.
func (s *NLevelSession) route(buf []leg, m graph.NodeID) []leg {
	top := s.topo.DomainOf(m)
	for !s.onChain[top] {
		top = s.topo.Domains[top].Parent
	}
	for _, d := range s.sourceChain {
		if d == top {
			break
		}
		buf = append(buf, leg{d, s.topo.Domains[d].Gateway})
	}
	down := len(buf)
	for d, n := s.topo.DomainOf(m), m; ; d, n = s.topo.Domains[d].Parent, s.topo.Domains[d].Gateway {
		buf = append(buf, leg{d, n})
		if d == top {
			break
		}
	}
	slices.Reverse(buf[down:])
	return buf
}

// cut reports whether leg l is cut: its domain is down or has parked l's
// node.
func (s *NLevelSession) cut(l leg) bool {
	ds := s.sessions[l.d]
	return ds.session.IsParked(ds.local(l.n)) || ds.down()
}

// SettledWork sums the settled-node work counters across every domain
// sub-session: enum is candidate-enumeration work (joins, reshapes), heal is
// failure-recovery sweep work. Both are deterministic, making them the
// megascale study's CI-stable unit of comparison against a flat session.
func (s *NLevelSession) SettledWork() (enum, heal int) {
	for _, ds := range s.sessions {
		st := ds.session.Stats()
		enum += st.EnumSettled
		heal += st.HealSettled
	}
	return enum, heal
}

// SubgraphBytes reports the deterministic memory footprint of the per-domain
// views the sub-sessions route over — the memory the hierarchy pays on top
// of the shared full topology in exchange for domain-confined recovery: a row
// header per node and gateway, and the arcs of the rows that cross a domain
// boundary. Every other row is the topology's own, aliased.
func (s *NLevelSession) SubgraphBytes() int64 {
	var total int64
	for _, ds := range s.sessions {
		total += ds.session.Graph().MemoryFootprint()
	}
	return total
}

// NumDomains returns the number of domain sub-sessions.
func (s *NLevelSession) NumDomains() int { return len(s.sessions) }

// Validate checks every domain session's structural invariants.
func (s *NLevelSession) Validate() error {
	for i, ds := range s.sessions {
		if err := ds.session.Tree().Validate(); err != nil {
			return fmt.Errorf("hierarchy: domain %d: %w", i, err)
		}
	}
	return nil
}
