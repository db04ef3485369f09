package protocol

import (
	"errors"
	"fmt"
	"slices"

	"smrp/internal/eventsim"
	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/multicast"
	"smrp/internal/routing"
	"smrp/internal/spfbase"
	"smrp/internal/trace"
)

// SPFInstance is the message-level SPF/PIM-style baseline: joins follow
// unicast routes, and recovery waits for unicast reconvergence (the global
// detour).
type SPFInstance struct {
	cfg     Config
	engine  *eventsim.Engine
	net     *eventsim.Network
	domain  *routing.Domain
	session *spfbase.Session

	lastRefresh  map[graph.NodeID]eventsim.Time
	restorations map[graph.NodeID]Restoration
	failedAt     eventsim.Time
	trace        *trace.Log
	// scratch is the reusable root-path buffer for refresh ticks and leaves
	// (SendAlong copies its path, and the engine is single-threaded).
	scratch graph.Path
}

// SetTrace installs an event log (nil disables tracing).
func (i *SPFInstance) SetTrace(l *trace.Log) { i.trace = l }

// NewSPFInstance builds an SPF protocol instance over g rooted at source.
func NewSPFInstance(g *graph.Graph, source graph.NodeID, cfg Config) (*SPFInstance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	engine := eventsim.NewEngine()
	dom, err := routing.NewDomain(g, cfg.Routing)
	if err != nil {
		return nil, err
	}
	sess, err := spfbase.NewSession(g, source)
	if err != nil {
		return nil, err
	}
	inst := &SPFInstance{
		cfg:          cfg,
		engine:       engine,
		net:          eventsim.NewNetwork(engine, g),
		domain:       dom,
		session:      sess,
		lastRefresh:  make(map[graph.NodeID]eventsim.Time),
		restorations: make(map[graph.NodeID]Restoration),
	}
	for n := 0; n < g.NumNodes(); n++ {
		inst.net.Register(graph.NodeID(n), func(graph.NodeID, eventsim.Message) {})
	}
	return inst, nil
}

// Engine exposes the driving engine.
func (i *SPFInstance) Engine() *eventsim.Engine { return i.engine }

// Network exposes the message layer.
func (i *SPFInstance) Network() *eventsim.Network { return i.net }

// Session exposes the control-plane state (read-only use).
func (i *SPFInstance) Session() *spfbase.Session { return i.session }

// Run drives the simulation until the horizon.
func (i *SPFInstance) Run(until eventsim.Time) error { return i.engine.Run(until) }

// ScheduleJoin enqueues a PIM-style join toward the source at the given
// time.
func (i *SPFInstance) ScheduleJoin(at eventsim.Time, m graph.NodeID) error {
	if at < i.engine.Now() {
		return fmt.Errorf("protocol: join of %d scheduled in the past", m)
	}
	_, err := i.engine.Schedule(at-i.engine.Now(), func() {
		tr := i.session.Tree()
		if tr.IsMember(m) {
			return
		}
		if err := i.session.Join(m); err != nil {
			return
		}
		if p, err := tr.PathToSource(m); err == nil && len(p) >= 2 {
			_ = i.net.SendAlong(p, JoinReq{Member: m, Path: p.Reverse()})
		}
		i.trace.Add(i.engine.Now(), trace.CatJoin, m, "joined along unicast path")
		i.armRefresh(m)
	})
	return err
}

// armRefresh starts the member's periodic soft-state refresh (PIM-style
// periodic Join/Prune along the member's branch).
func (i *SPFInstance) armRefresh(m graph.NodeID) {
	i.lastRefresh[m] = i.engine.Now()
	var tick func()
	tick = func() {
		if !i.session.Tree().IsMember(m) {
			return
		}
		p, err := i.session.Tree().AppendPathToSource(i.scratch[:0], m)
		i.scratch = p[:0]
		if err == nil && len(p) >= 2 {
			_ = i.net.SendAlong(p, Refresh{Member: m})
		}
		i.lastRefresh[m] = i.engine.Now()
		i.engine.MustSchedule(i.cfg.RefreshInterval, tick)
	}
	i.engine.MustSchedule(i.cfg.RefreshInterval, tick)
}

// LastRefresh returns when member m last refreshed its branch.
func (i *SPFInstance) LastRefresh(m graph.NodeID) (eventsim.Time, bool) {
	t, ok := i.lastRefresh[m]
	return t, ok
}

// ScheduleLeave enqueues a member departure.
func (i *SPFInstance) ScheduleLeave(at eventsim.Time, m graph.NodeID) error {
	if at < i.engine.Now() {
		return fmt.Errorf("protocol: leave of %d scheduled in the past", m)
	}
	_, err := i.engine.Schedule(at-i.engine.Now(), func() {
		tr := i.session.Tree()
		if !tr.IsMember(m) {
			return
		}
		p, err := tr.AppendPathToSource(i.scratch[:0], m)
		i.scratch = p[:0]
		if err == nil && len(p) >= 2 {
			_ = i.net.SendAlong(p, LeaveReq{Member: m})
		}
		_ = i.session.Leave(m)
	})
	return err
}

// InjectFailure schedules a persistent failure. Every disconnected member
// rejoins only after its router's unicast table has reconverged — the
// global-detour latency the paper's related work measured for PIM/OSPF.
func (i *SPFInstance) InjectFailure(at eventsim.Time, f failure.Failure) error {
	if at < i.engine.Now() {
		return errors.New("protocol: failure scheduled in the past")
	}
	if err := failure.Check([]failure.Failure{f}, i.net.Graph()); err != nil {
		return fmt.Errorf("protocol: failure: %w", err)
	}
	_, err := i.engine.Schedule(at-i.engine.Now(), func() { i.onFailure(f) })
	return err
}

func (i *SPFInstance) onFailure(f failure.Failure) {
	i.failedAt = i.engine.Now()
	i.trace.Add(i.engine.Now(), trace.CatFailure, graph.Invalid, "%v injected", f)
	switch f.Kind {
	case failure.LinkFailure:
		i.net.FailLink(f.Edge.A, f.Edge.B)
	case failure.NodeFailure:
		i.net.FailNode(f.Node)
	}
	mask := i.net.Failed()
	tr := i.session.Tree()
	disconnected := failure.DisconnectedMembers(tr, mask)

	// Measure the global detour per member against the pre-recovery tree.
	rds := make(map[graph.NodeID]float64, len(disconnected))
	for _, m := range disconnected {
		if _, rd, err := failure.GlobalDetour(tr, mask, m); err == nil {
			rds[m] = rd
		}
	}

	// Flush dead control state and reroute later joins around the failure;
	// members rejoin individually below.
	if _, err := i.session.FlushDead(mask); err != nil {
		return
	}
	i.session.Reroute(mask)

	i.domain.ApplyFailure(f)
	for _, m := range disconnected {
		m := m
		rd, ok := rds[m]
		if !ok {
			continue // unrecoverable
		}
		conv := i.domain.ConvergenceTime(m, f)
		if conv == eventsim.Infinity {
			continue
		}
		i.engine.MustSchedule(conv, func() {
			i.rejoin(m, rd, i.failedAt+conv, 0)
		})
	}
}

// maxRecoveryRetries bounds re-resolution when concurrent rejoin grafts
// collide.
const maxRecoveryRetries = 10

// rejoin sends the member's Join_Req along its reconverged unicast route;
// the branch is live when the request reaches the first on-tree node.
func (i *SPFInstance) rejoin(m graph.NodeID, rd float64, detectedAt eventsim.Time, attempt int) {
	tr := i.session.Tree()
	if tr.IsMember(m) || attempt > maxRecoveryRetries {
		return
	}
	if tr.OnTree(m) {
		// m came back as a relay on another member's rejoin; it becomes a
		// member in place — data already flows through it.
		if err := tr.Graft(graph.Path{m}, true); err == nil {
			i.restorations[m] = Restoration{
				Member:     m,
				DetectedAt: detectedAt,
				RestoredAt: i.engine.Now(),
				Latency:    i.engine.Now() - i.failedAt,
			}
		}
		return
	}
	newPath := i.domain.PathTo(m, tr.Source())
	if newPath == nil {
		return
	}
	seg := mergePrefix(tr, newPath)
	if seg == nil {
		return
	}
	joinDist, err := seg.Weight(i.net.Graph())
	if err != nil {
		return
	}
	i.engine.MustSchedule(eventsim.Time(joinDist), func() {
		i.applyRejoin(m, rd, detectedAt, attempt)
	})
	_ = i.net.SendAlong(seg, JoinReq{Member: m, Path: seg.Reverse()})
}

// mergePrefix trims a member-rooted path (m → … → source) to the segment
// ending at the first on-tree node (the portion a Join_Req actually
// travels). It returns nil when the path immediately starts on the tree or
// never reaches it.
func mergePrefix(tr *multicast.Tree, p graph.Path) graph.Path {
	var seg graph.Path
	for _, n := range p {
		seg = append(seg, n)
		if tr.OnTree(n) {
			if len(seg) < 2 {
				return nil
			}
			return seg
		}
	}
	return nil
}

// applyRejoin grafts m along the current merge prefix of its unicast route
// (re-resolved: the tree may have grown through other rejoins).
func (i *SPFInstance) applyRejoin(m graph.NodeID, rd float64, detectedAt eventsim.Time, attempt int) {
	tr := i.session.Tree()
	if tr.IsMember(m) {
		return
	}
	if tr.OnTree(m) {
		if err := tr.Graft(graph.Path{m}, true); err != nil {
			return
		}
	} else {
		newPath := i.domain.PathTo(m, tr.Source())
		if newPath == nil {
			return
		}
		seg := mergePrefix(tr, newPath)
		if seg == nil {
			return
		}
		if err := tr.Graft(seg.Reverse(), true); err != nil {
			// A concurrent graft collided; re-resolve immediately.
			i.rejoin(m, rd, detectedAt, attempt+1)
			return
		}
	}
	i.restorations[m] = Restoration{
		Member:           m,
		DetectedAt:       detectedAt,
		RestoredAt:       i.engine.Now(),
		Latency:          i.engine.Now() - i.failedAt,
		RecoveryDistance: rd,
	}
	i.trace.Add(i.engine.Now(), trace.CatRecovery, m,
		"rejoined after reconvergence rd=%.3f latency=%.3f", rd, float64(i.engine.Now()-i.failedAt))
}

// Restorations returns the recorded per-member recoveries, sorted by member.
func (i *SPFInstance) Restorations() []Restoration {
	out := make([]Restoration, 0, len(i.restorations))
	for _, r := range i.restorations {
		out = append(out, r)
	}
	slices.SortFunc(out, func(a, b Restoration) int { return int(a.Member - b.Member) })
	return out
}

// Multicast delivers one data packet from the source over the current tree.
func (i *SPFInstance) Multicast() map[graph.NodeID]eventsim.Time {
	return multicastOver(i.session.Tree(), i.net.Failed())
}

// multicastOver computes per-member delivery offsets of one packet flooded
// down the tree, skipping branches cut by the mask.
func multicastOver(tr *multicast.Tree, mask *graph.Mask) map[graph.NodeID]eventsim.Time {
	out := make(map[graph.NodeID]eventsim.Time)
	g := tr.Graph()
	type item struct {
		node graph.NodeID
		at   float64
	}
	stack := []item{{node: tr.Source(), at: 0}}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if tr.IsMember(it.node) {
			out[it.node] = eventsim.Time(it.at)
		}
		for _, k := range tr.Children(it.node) {
			if mask.NodeBlocked(k) || mask.EdgeBlocked(it.node, k) {
				continue
			}
			w, _ := g.EdgeWeight(it.node, k)
			stack = append(stack, item{node: k, at: it.at + w})
		}
	}
	return out
}
