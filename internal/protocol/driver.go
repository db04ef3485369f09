package protocol

import (
	"fmt"
	"slices"

	"smrp/internal/eventsim"
	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/multicast"
	"smrp/internal/routing"
	"smrp/internal/trace"
)

// controlPlane is what the driver needs of an arm's algorithmic session
// (core.Session or spfbase.Session).
type controlPlane interface {
	Tree() *multicast.Tree
	Leave(graph.NodeID) error
}

// driver is the message-level plumbing both arms share: the engine, the
// network, the routing domain, soft-state refresh with its expiry audit, and
// the bookkeeping of restorations. Path decisions are the arm's session's;
// the driver only times them.
type driver struct {
	cfg    Config
	engine *eventsim.Engine
	net    *eventsim.Network
	domain *routing.Domain
	plane  controlPlane
	trace  *trace.Log

	lastRefresh map[graph.NodeID]eventsim.Time
	// refreshGen invalidates a member's old refresh loop when a new one is
	// armed (e.g. after recovery re-grafts the member).
	refreshGen   map[graph.NodeID]int
	silenced     map[graph.NodeID]bool
	restorations map[graph.NodeID]Restoration
	expired      []graph.NodeID
	failedAt     eventsim.Time
	auditArmed   bool
	// pending holds the restorations the arm has started and the network has
	// not carried out yet.
	pending map[graph.NodeID]pendingGraft
	// scratch is the reusable root-path buffer for refresh ticks, leaves and
	// notice-delay walks — the hottest periodic paths. Safe because SendAlong
	// copies its path before returning and the engine is single-threaded.
	scratch graph.Path
}

// init sets the driver up over g for the arm whose session is plane.
func (d *driver) init(g *graph.Graph, cfg Config, plane controlPlane) error {
	dom, err := routing.NewDomain(g, cfg.Routing)
	if err != nil {
		return err
	}
	engine := eventsim.NewEngine()
	*d = driver{
		cfg:          cfg,
		engine:       engine,
		net:          eventsim.NewNetwork(engine, g),
		domain:       dom,
		plane:        plane,
		lastRefresh:  make(map[graph.NodeID]eventsim.Time),
		refreshGen:   make(map[graph.NodeID]int),
		silenced:     make(map[graph.NodeID]bool),
		restorations: make(map[graph.NodeID]Restoration),
		pending:      make(map[graph.NodeID]pendingGraft),
	}
	// Every node accepts control messages; decisions are delegated to the
	// control-plane oracle, so handlers only account for delivery.
	for n := 0; n < g.NumNodes(); n++ {
		d.net.Register(graph.NodeID(n), func(graph.NodeID, eventsim.Message) {})
	}
	return nil
}

// SetTrace installs an event log (nil disables tracing).
func (d *driver) SetTrace(l *trace.Log) { d.trace = l }

// Network exposes the message layer (for overhead counters).
func (d *driver) Network() *eventsim.Network { return d.net }

// Run drives the simulation until the horizon.
func (d *driver) Run(until eventsim.Time) error { return d.engine.Run(until) }

// inject schedules fn(fs) at time at. A batch in the past, an empty one, or
// one naming a component the topology lacks is refused, and nothing is
// scheduled.
func (d *driver) inject(at eventsim.Time, what string, fs []failure.Failure, fn func([]failure.Failure)) error {
	if at < d.engine.Now() {
		return fmt.Errorf("%s: %w", what, ErrPastEvent)
	}
	if len(fs) == 0 {
		return fmt.Errorf("protocol: %w: empty %s", failure.ErrBadSchedule, what)
	}
	if err := failure.Check(fs, d.net.Graph()); err != nil {
		return fmt.Errorf("protocol: %s: %w", what, err)
	}
	batch := slices.Clone(fs)
	_, err := d.engine.Schedule(at-d.engine.Now(), func() { fn(batch) })
	return err
}

// fail takes a failure batch down in the network and routing views.
func (d *driver) fail(fs []failure.Failure) {
	now := d.engine.Now()
	d.failedAt = now
	for _, f := range fs {
		d.trace.Add(now, trace.CatFailure, graph.Invalid, "%v injected", f)
		switch f.Kind {
		case failure.LinkFailure:
			d.net.FailLink(f.Edge.A, f.Edge.B)
		case failure.NodeFailure:
			d.net.FailNode(f.Node)
		}
		d.domain.ApplyFailure(f)
	}
}

// armRefresh starts the member's periodic soft-state refresh along its
// branch (superseding any older loop of m's) and, once per instance, the
// expiry audit that reclaims branches of members that fell silent — the
// soft-state robustness mechanism of §3.2.
func (d *driver) armRefresh(m graph.NodeID) {
	d.lastRefresh[m] = d.engine.Now()
	d.refreshGen[m]++
	gen := d.refreshGen[m]
	var tick func()
	tick = func() {
		if d.refreshGen[m] != gen {
			return // superseded by a newer loop
		}
		tr := d.plane.Tree()
		if !tr.IsMember(m) || d.silenced[m] {
			return // left, lost, or crashed
		}
		p, err := tr.AppendPathToSource(d.scratch[:0], m)
		d.scratch = p[:0]
		if err == nil && len(p) >= 2 {
			_ = d.net.SendAlong(p, Refresh{Member: m})
		}
		d.lastRefresh[m] = d.engine.Now()
		d.engine.MustSchedule(d.cfg.RefreshInterval, tick)
	}
	d.engine.MustSchedule(d.cfg.RefreshInterval, tick)
	d.armAudit()
}

// armAudit starts the periodic soft-state expiry scan.
func (d *driver) armAudit() {
	if d.auditArmed {
		return
	}
	d.auditArmed = true
	var audit func()
	audit = func() {
		now := d.engine.Now()
		for _, m := range d.plane.Tree().Members() {
			last, ok := d.lastRefresh[m]
			if _, restoring := d.pending[m]; !ok || restoring || now-last <= d.cfg.HoldTime {
				continue
			}
			// The branch's soft state expires hop by hop; the oracle
			// reclaims it at once.
			if err := d.plane.Leave(m); err == nil {
				d.expired = append(d.expired, m)
				delete(d.lastRefresh, m)
				d.trace.Add(now, trace.CatExpiry, m, "soft state expired (last refresh t=%.3f)", float64(last))
			}
		}
		d.engine.MustSchedule(d.cfg.RefreshInterval, audit)
	}
	d.engine.MustSchedule(d.cfg.RefreshInterval, audit)
}

// LastRefresh returns when member m last refreshed its branch.
func (d *driver) LastRefresh(m graph.NodeID) (eventsim.Time, bool) {
	t, ok := d.lastRefresh[m]
	return t, ok
}

// ScheduleLeave enqueues a member departure; the Leave_Req travels the
// member's branch before state is released.
func (d *driver) ScheduleLeave(at eventsim.Time, m graph.NodeID) error {
	if at < d.engine.Now() {
		return fmt.Errorf("leave of %d: %w", m, ErrPastEvent)
	}
	_, err := d.engine.Schedule(at-d.engine.Now(), func() {
		tr := d.plane.Tree()
		if !tr.IsMember(m) {
			return
		}
		p, err := tr.AppendPathToSource(d.scratch[:0], m)
		d.scratch = p[:0]
		if err == nil && len(p) >= 2 {
			_ = d.net.SendAlong(p, LeaveReq{Member: m})
		}
		_ = d.plane.Leave(m)
		delete(d.lastRefresh, m)
		delete(d.pending, m)
		d.trace.Add(d.engine.Now(), trace.CatLeave, m, "leave_req completed")
	})
	return err
}

// pendingGraft is one restoration an arm has started and the network has not
// carried out yet: its timing, the path its Join_Req travels (member first,
// merger last) and how many of its Join_Reqs later failures cut. landed is
// set once RestoredAt allows for the graft the merger sits on.
type pendingGraft struct {
	Restoration
	path    graph.Path
	retries int
	landed  bool
}

// restored records m's restoration r, which has just landed: m is back in
// service and refreshes its new branch.
func (d *driver) restored(m graph.NodeID, r Restoration) {
	delete(d.pending, m)
	d.restorations[m] = r
	d.trace.Add(d.engine.Now(), trace.CatRecovery, m,
		"restored rd=%.3f latency=%.3f", r.RecoveryDistance, float64(r.Latency))
	d.armRefresh(m)
}

// Restorations returns the recorded per-member recoveries, sorted by member.
func (d *driver) Restorations() []Restoration {
	out := make([]Restoration, 0, len(d.restorations))
	for _, r := range d.restorations {
		out = append(out, r)
	}
	slices.SortFunc(out, func(a, b Restoration) int { return int(a.Member - b.Member) })
	return out
}

// Multicast delivers one data packet from the source over the current tree,
// returning each reachable member's delivery time offset. Members whose
// branch is currently cut, or whose restoration is still in flight, receive
// nothing — the service disruption the recovery machinery exists to shorten.
func (d *driver) Multicast() map[graph.NodeID]eventsim.Time {
	out := multicastOver(d.plane.Tree(), d.net.Failed())
	for m := range d.pending {
		delete(out, m)
	}
	return out
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
