// Package hierarchy implements the paper's hierarchical recovery
// architecture (§3.3.3, Figure 6) at any depth: the network is a tree of
// recovery domains, every domain runs its own SMRP sub-session over its
// nodes plus its children's gateways, agents relay the stream across
// levels, and a failure is recovered entirely inside the domain(s) it
// touches. This bounds the scope of tree reconfiguration and makes SMRP
// scale to large networks.
//
// A transit–stub topology is the two-level case (topology.TransitStub.NLevel):
// every stub is a level-1 domain whose agent is its gateway router, and the
// transit core plus those agents is the level-0 domain. The gateway of the
// domain holding the true source relays the stream up into its parent's
// session (A₁ in Figure 6), and so on up the source's chain of domains.
package hierarchy

import (
	"errors"
	"fmt"
	"slices"

	"smrp/internal/core"
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
)

// domainSession is one recovery domain's sub-multicast tree, built over the
// induced subgraph of the domain's nodes plus its children's gateways.
type domainSession struct {
	session *core.Session
	nm      *graph.NodeMap
}

// newDomainSession builds a sub-session over the induced subgraph of nodes,
// rooted at root (a full-graph ID).
func newDomainSession(g *graph.Graph, nodes []graph.NodeID, root graph.NodeID, cfg core.Config) (*domainSession, error) {
	sub, nm, err := g.Subgraph(nodes)
	if err != nil {
		return nil, err
	}
	// Sub-sessions route over the induced subgraph but never mutate it
	// (failures are mask-based), so freeze it: at megascale the per-domain
	// copies are the hierarchy's dominant memory term, and packed rows carry
	// no append slack.
	sub.Freeze()
	// The domain's own SPF cache: joins read the unicast delay and the
	// candidate sweep's lower bound off the session root's cached tree
	// instead of running a Dijkstra each, and degraded joins get the delta
	// repair. It holds nothing until the domain sees its first join.
	sub.EnableSPFCache()
	subRoot, ok := nm.ToSub(root)
	if !ok {
		return nil, fmt.Errorf("root %d not in domain", root)
	}
	sess, err := core.NewSession(sub, subRoot, cfg)
	if err != nil {
		return nil, err
	}
	return &domainSession{session: sess, nm: nm}, nil
}

// join admits a full-graph node into the domain's sub-session.
func (d *domainSession) join(n graph.NodeID) error {
	sub, ok := d.nm.ToSub(n)
	if !ok {
		return fmt.Errorf("join %d: %w", n, ErrUnknownNode)
	}
	_, err := d.session.Join(sub)
	return err
}

// leave removes a full-graph node from the domain's sub-session.
func (d *domainSession) leave(n graph.NodeID) error {
	sub, ok := d.nm.ToSub(n)
	if !ok {
		return fmt.Errorf("leave %d: %w", n, ErrUnknownNode)
	}
	return d.session.Leave(sub)
}

// isMember reports membership of a full-graph node.
func (d *domainSession) isMember(n graph.NodeID) bool {
	sub, ok := d.nm.ToSub(n)
	return ok && d.session.Tree().IsMember(sub)
}

// isParked reports whether a full-graph node is parked in the sub-session.
func (d *domainSession) isParked(n graph.NodeID) bool {
	sub, ok := d.nm.ToSub(n)
	return ok && d.session.IsParked(sub)
}

// root returns the sub-session's root in full-graph IDs.
func (d *domainSession) root() graph.NodeID {
	full, _ := d.nm.ToFull(d.session.Tree().Source())
	return full
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

	// Build every domain's sub-session. The session graph covers the
	// domain's nodes plus its children's gateways. The root of the session:
	//   - the true source, in the source's own domain;
	//   - the gateway of the chain child, in ancestors of the source domain
	//     (the relaying agent, Figure 6's A₁ generalized);
	//   - the domain's own gateway everywhere else (data arrives from the
	//     parent through it).
	s.sessions = make([]*domainSession, len(t.Domains))
	for i := range t.Domains {
		d := &t.Domains[i]
		nodes := append([]graph.NodeID(nil), d.Nodes...)
		for _, c := range d.Children {
			nodes = append(nodes, t.Domains[c].Gateway)
		}
		root := d.Gateway
		switch {
		case i == srcDom:
			root = src
		case s.onChain[i]:
			root = t.Domains[s.chainChild(i)].Gateway
		}
		ds, err := newDomainSession(t.Graph, nodes, root, cfg)
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
		if !ds.isMember(d.Gateway) {
			if err := ds.join(d.Gateway); err != nil {
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
	ds := s.sessions[di]
	var degraded error
	if !ds.isMember(n) { // a source-chain gateway is already a relay member
		err := ds.join(n)
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
		if ps.isMember(gw) || ps.isParked(gw) || gw == ps.root() {
			break // already delivered (or waiting for a repair) here
		}
		err := ps.join(gw)
		if err != nil && !errors.Is(err, core.ErrPartitioned) {
			// The agent itself is down and the parent never carried it: no
			// repair would bring the stream here, so refuse the receiver.
			// (Only off-chain domains get here, and there n was joined or
			// parked just above.)
			delete(s.members, n)
			_ = ds.leave(n)
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
		if err := s.sessions[di].leave(n); err != nil {
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

// EndToEndDelay computes the delivery delay to member m across the domain
// hierarchy: up the source chain agent by agent to the deepest common
// ancestor, then down the member's chain gateway by gateway. It fails with
// core.ErrPartitioned exactly when m is degraded (see Parked).
func (s *NLevelSession) EndToEndDelay(m graph.NodeID) (float64, error) {
	if !s.members[m] {
		return 0, fmt.Errorf("hierarchy: delay %d: %w", m, core.ErrNotMember)
	}
	// m's chain, bottom-up: domain d delivers to n (m itself, then the gateway
	// of the domain below). The source chain reaches the root, so the climb
	// ends on it, at the deepest common ancestor.
	type leg struct {
		d int
		n graph.NodeID
	}
	l := leg{s.topo.DomainOf(m), m}
	down := []leg{l}
	for !s.onChain[l.d] {
		l = leg{s.topo.Domains[l.d].Parent, s.topo.Domains[l.d].Gateway}
		down = append(down, l)
	}
	var cum float64
	// Ascend the source chain: each domain relays from its session root to
	// its gateway, which is the root of the parent's session.
	for _, d := range s.sourceChain {
		if d == l.d {
			break
		}
		v, err := s.delayIn(d, s.topo.Domains[d].Gateway)
		if err != nil {
			return 0, err
		}
		cum += v
	}
	// Descend from the common ancestor to m.
	for k := len(down) - 1; k >= 0; k-- {
		v, err := s.delayIn(down[k].d, down[k].n)
		if err != nil {
			return 0, err
		}
		cum += v
	}
	return cum, nil
}

// delayIn returns the delay from domain d's session root to node n (full
// IDs), or core.ErrPartitioned when that leg is cut: the domain is down or n
// is parked in it.
func (s *NLevelSession) delayIn(d int, n graph.NodeID) (float64, error) {
	ds := s.sessions[d]
	sub, ok := ds.nm.ToSub(n)
	if !ok {
		return 0, fmt.Errorf("hierarchy: node %d not in domain %d", n, d)
	}
	if ds.session.IsParked(sub) || ds.down() {
		return 0, fmt.Errorf("hierarchy: node %d in domain %d: %w", n, d, core.ErrPartitioned)
	}
	return ds.session.Tree().DelayTo(sub)
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
// induced subgraphs the sub-sessions route over — the memory the hierarchy
// pays on top of the shared full topology in exchange for domain-confined
// recovery. The sum is O(N·avg-degree) total because every node belongs to
// exactly one domain (gateways additionally appear in their parent's
// session).
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
