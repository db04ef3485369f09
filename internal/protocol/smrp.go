package protocol

import (
	"errors"
	"fmt"
	"slices"

	"smrp/internal/core"
	"smrp/internal/eventsim"
	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/routing"
	"smrp/internal/topology"
	"smrp/internal/trace"
)

// Sentinel errors returned by protocol scheduling and validation.
var (
	// ErrBadConfig is wrapped by every Config.Validate error.
	ErrBadConfig = errors.New("protocol: invalid configuration")
	// ErrPastEvent is wrapped when an event is scheduled before the
	// simulator's current virtual time.
	ErrPastEvent = errors.New("protocol: event scheduled in the past")
)

// Config parameterizes a protocol instance.
type Config struct {
	SMRP    core.Config
	Routing routing.Config
	// RefreshInterval is the soft-state refresh period; HoldTime is how long
	// state survives without refresh (HoldTime > RefreshInterval).
	RefreshInterval eventsim.Time
	HoldTime        eventsim.Time

	// RetryTimeout is how long a recovering member waits before re-detouring
	// after its Join_Req is lost to a later failure while the request was in
	// flight (the multi-failure case). 0 defaults to RefreshInterval.
	RetryTimeout eventsim.Time
	// RetryBackoff is the per-attempt multiplier of RetryTimeout (bounded
	// exponential backoff, capped at HoldTime). Values < 1 default to 2.
	RetryBackoff float64
	// RetryJitter is the maximum deterministic jitter added to each retry
	// delay, drawn from a stream seeded by JitterSeed. The stream is consumed
	// only on actual retries, so failure-free runs are byte-identical
	// regardless of the seed. 0 disables jitter.
	RetryJitter eventsim.Time
	// JitterSeed seeds the jitter stream. 0 defaults to 1.
	JitterSeed uint64
}

// DefaultConfig returns the protocol defaults used by the examples and the
// latency experiments.
func DefaultConfig() Config {
	return Config{
		SMRP:            core.DefaultConfig(),
		Routing:         routing.DefaultConfig(),
		RefreshInterval: 5,
		HoldTime:        16,
		RetryTimeout:    5,
		RetryBackoff:    2,
		RetryJitter:     0.5,
		JitterSeed:      1,
	}
}

// withRecoveryDefaults fills zero-valued retry knobs so configurations built
// by hand (struct literals predating the retry fields) keep working.
func (c Config) withRecoveryDefaults() Config {
	if c.RetryTimeout <= 0 {
		c.RetryTimeout = c.RefreshInterval
	}
	if c.RetryBackoff < 1 {
		c.RetryBackoff = 2
	}
	if c.JitterSeed == 0 {
		c.JitterSeed = 1
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.SMRP.Validate(); err != nil {
		return err
	}
	if err := c.Routing.Validate(); err != nil {
		return err
	}
	if c.RefreshInterval <= 0 || c.HoldTime <= c.RefreshInterval {
		return fmt.Errorf("%w: need 0 < RefreshInterval < HoldTime", ErrBadConfig)
	}
	if c.RetryTimeout < 0 || c.RetryBackoff < 0 || c.RetryJitter < 0 {
		return fmt.Errorf("%w: retry knobs must be non-negative", ErrBadConfig)
	}
	return nil
}

// Restoration records one member's recovery from a failure.
type Restoration struct {
	Member graph.NodeID
	// DetectedAt is when the member learned of the failure (notification
	// down the dead subtree, a retry timeout or a repair for SMRP; routing
	// convergence for SPF).
	DetectedAt eventsim.Time
	// RestoredAt is when the member's Join_Req landed and its new branch
	// went live.
	RestoredAt eventsim.Time
	// Latency is RestoredAt minus the failure instant.
	Latency eventsim.Time
	// RecoveryDistance is the weight of new links brought into the tree.
	RecoveryDistance float64
}

// SMRPInstance is a message-level SMRP session running on the event
// simulator.
type SMRPInstance struct {
	cfg     Config
	engine  *eventsim.Engine
	net     *eventsim.Network
	domain  *routing.Domain
	session *core.Session

	lastRefresh map[graph.NodeID]eventsim.Time
	// refreshGen invalidates a member's old refresh loop when a new one is
	// armed (e.g. after recovery re-grafts the member).
	refreshGen   map[graph.NodeID]int
	silenced     map[graph.NodeID]bool
	restorations map[graph.NodeID]Restoration
	expired      []graph.NodeID
	failedAt     eventsim.Time
	auditArmed   bool
	trace        *trace.Log
	// pending holds the restorations the session has committed and the
	// network has not carried out yet.
	pending map[graph.NodeID]pendingGraft
	// jitter is the deterministic retry-jitter stream; it is consumed only
	// when a retry actually fires.
	jitter *topology.RNG
	// scratch is the reusable root-path buffer for refresh ticks, leaves and
	// notice-delay walks — the hottest periodic paths. Safe because SendAlong
	// copies its path before returning and the engine is single-threaded.
	scratch graph.Path
}

// SetTrace installs an event log (nil disables tracing).
func (i *SMRPInstance) SetTrace(l *trace.Log) { i.trace = l }

// NewSMRPInstance builds an SMRP protocol instance over g rooted at source.
func NewSMRPInstance(g *graph.Graph, source graph.NodeID, cfg Config) (*SMRPInstance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withRecoveryDefaults()
	engine := eventsim.NewEngine()
	dom, err := routing.NewDomain(g, cfg.Routing)
	if err != nil {
		return nil, err
	}
	sess, err := core.NewSession(g, source, cfg.SMRP)
	if err != nil {
		return nil, err
	}
	inst := &SMRPInstance{
		cfg:          cfg,
		engine:       engine,
		net:          eventsim.NewNetwork(engine, g),
		domain:       dom,
		session:      sess,
		lastRefresh:  make(map[graph.NodeID]eventsim.Time),
		refreshGen:   make(map[graph.NodeID]int),
		silenced:     make(map[graph.NodeID]bool),
		restorations: make(map[graph.NodeID]Restoration),
		pending:      make(map[graph.NodeID]pendingGraft),
		jitter:       topology.NewRNG(cfg.JitterSeed),
	}
	// Every node accepts control messages; decisions are delegated to the
	// control-plane oracle, so handlers only account for delivery.
	for n := 0; n < g.NumNodes(); n++ {
		inst.net.Register(graph.NodeID(n), func(graph.NodeID, eventsim.Message) {})
	}
	return inst, nil
}

// Engine exposes the driving engine (for scheduling and Run).
func (i *SMRPInstance) Engine() *eventsim.Engine { return i.engine }

// Network exposes the message layer (for overhead counters).
func (i *SMRPInstance) Network() *eventsim.Network { return i.net }

// Session exposes the control-plane state (read-only use).
func (i *SMRPInstance) Session() *core.Session { return i.session }

// Run drives the simulation until the horizon.
func (i *SMRPInstance) Run(until eventsim.Time) error { return i.engine.Run(until) }

// ScheduleJoin enqueues a member join at the given time. The join decision
// happens at that time (after query round-trips when the query scheme is
// configured); the graft completes when the Join_Req reaches the merger.
func (i *SMRPInstance) ScheduleJoin(at eventsim.Time, m graph.NodeID) error {
	if at < i.engine.Now() {
		return fmt.Errorf("join of %d: %w", m, ErrPastEvent)
	}
	_, err := i.engine.Schedule(at-i.engine.Now(), func() { i.startJoin(m) })
	return err
}

// queryLatency models the §3.3.1 discovery cost: the worst neighbor-query
// round trip (query out along the neighbor's SPF path to the first on-tree
// node, response back). Under full topology knowledge discovery is free.
func (i *SMRPInstance) queryLatency(m graph.NodeID) eventsim.Time {
	if i.cfg.SMRP.Knowledge != core.QueryScheme {
		return 0
	}
	g := i.net.Graph()
	src := i.session.Tree().Source()
	var worst float64
	for _, arc := range g.Neighbors(m) {
		if i.net.Failed().EdgeBlocked(m, arc.To) {
			continue
		}
		// Query travels m→neighbor→…→first on-tree node and back.
		i.net.Sent++ // the query message itself
		p := i.domain.PathTo(arc.To, src)
		var d float64 = arc.Weight
		for j := 0; j+1 < len(p); j++ {
			if i.session.Tree().OnTree(p[j]) {
				break
			}
			w, _ := g.EdgeWeight(p[j], p[j+1])
			d += w
		}
		if 2*d > worst {
			worst = 2 * d
		}
	}
	return eventsim.Time(worst)
}

// startJoin performs discovery, then sends the Join_Req.
func (i *SMRPInstance) startJoin(m graph.NodeID) {
	if i.session.Tree().IsMember(m) {
		return
	}
	discovery := i.queryLatency(m)
	i.engine.MustSchedule(discovery, func() {
		if i.session.Tree().OnTree(m) {
			// Relay becomes member in place; no Join_Req needed.
			if _, err := i.session.Join(m); err == nil {
				i.trace.Add(i.engine.Now(), trace.CatJoin, m, "relay became member in place")
				i.armRefresh(m)
			}
			return
		}
		// Decide now, against current tree state, with the core logic.
		probe := i.session // decisions and application both via the oracle
		res, err := probe.Join(m)
		if err != nil {
			return
		}
		i.trace.Add(i.engine.Now(), trace.CatJoin, m,
			"merger=%d shr=%d delay=%.3f within-bound=%v", res.Merger, res.MergerSHR, res.Delay, res.WithinBound)
		for _, r := range res.Reshaped {
			i.trace.Add(i.engine.Now(), trace.CatReshape, r, "condition-I trigger after join of %d", m)
		}
		// The Join_Req physically travels member→merger (reverse of the
		// grafted path); its arrival marks when the branch is live.
		if len(res.Connection) >= 2 {
			_ = i.net.SendAlong(res.Connection.Reverse(), JoinReq{Member: m, Path: res.Connection})
		}
		i.armRefresh(m)
	})
}

// armRefresh starts the member's periodic soft-state refresh and (once per
// instance) the expiry audit that reclaims branches of members that fell
// silent — the soft-state robustness mechanism of §3.2.
func (i *SMRPInstance) armRefresh(m graph.NodeID) {
	i.lastRefresh[m] = i.engine.Now()
	i.refreshGen[m]++
	gen := i.refreshGen[m]
	var tick func()
	tick = func() {
		if i.refreshGen[m] != gen {
			return // superseded by a newer loop
		}
		if !i.session.Tree().IsMember(m) || i.silenced[m] {
			return // left, lost, or crashed
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
	i.armAudit()
}

// armAudit starts the periodic soft-state expiry scan.
func (i *SMRPInstance) armAudit() {
	if i.auditArmed {
		return
	}
	i.auditArmed = true
	var audit func()
	audit = func() {
		now := i.engine.Now()
		for _, m := range i.session.Tree().Members() {
			last, ok := i.lastRefresh[m]
			if _, restoring := i.pending[m]; !ok || restoring || now-last <= i.cfg.HoldTime {
				continue
			}
			// The branch's soft state expires hop by hop; the oracle
			// reclaims it at once.
			if err := i.session.Leave(m); err == nil {
				i.expired = append(i.expired, m)
				delete(i.lastRefresh, m)
				i.trace.Add(now, trace.CatExpiry, m, "soft state expired (last refresh t=%.3f)", float64(last))
			}
		}
		i.engine.MustSchedule(i.cfg.RefreshInterval, audit)
	}
	i.engine.MustSchedule(i.cfg.RefreshInterval, audit)
}

// SilenceMember makes member m stop refreshing at the given time without a
// Leave_Req — a receiver crash. Its branch is reclaimed once HoldTime
// passes without a refresh.
func (i *SMRPInstance) SilenceMember(at eventsim.Time, m graph.NodeID) error {
	if at < i.engine.Now() {
		return fmt.Errorf("silence of %d: %w", m, ErrPastEvent)
	}
	_, err := i.engine.Schedule(at-i.engine.Now(), func() { i.silenced[m] = true })
	return err
}

// Expired returns members whose branches were reclaimed by soft-state
// expiry, in expiry order.
func (i *SMRPInstance) Expired() []graph.NodeID {
	out := make([]graph.NodeID, len(i.expired))
	copy(out, i.expired)
	return out
}

// LastRefresh returns when member m last refreshed its branch.
func (i *SMRPInstance) LastRefresh(m graph.NodeID) (eventsim.Time, bool) {
	t, ok := i.lastRefresh[m]
	return t, ok
}

// ScheduleLeave enqueues a member departure; the Leave_Req travels the
// member's branch before state is released.
func (i *SMRPInstance) ScheduleLeave(at eventsim.Time, m graph.NodeID) error {
	if at < i.engine.Now() {
		return fmt.Errorf("leave of %d: %w", m, ErrPastEvent)
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
		delete(i.lastRefresh, m)
		delete(i.pending, m)
		i.trace.Add(i.engine.Now(), trace.CatLeave, m, "leave_req completed")
	})
	return err
}

// InjectFailure schedules a persistent failure. Detection, notification of
// the dead subtree, local detour discovery, and the Join_Reqs along the
// detours all play out in virtual time; per-member restoration latencies are
// recorded.
func (i *SMRPInstance) InjectFailure(at eventsim.Time, f failure.Failure) error {
	if at < i.engine.Now() {
		return fmt.Errorf("failure: %w", ErrPastEvent)
	}
	if err := failure.Check([]failure.Failure{f}, i.net.Graph()); err != nil {
		return fmt.Errorf("protocol: failure: %w", err)
	}
	_, err := i.engine.Schedule(at-i.engine.Now(), func() { i.onFailureSet([]failure.Failure{f}) })
	return err
}

// onFailureSet applies a correlated failure batch atomically. The session
// recovers at once through core.Session.Recover, against the accumulated
// mask; what plays out in virtual time is each regrafted member's share of
// that report: the failure notice (or a retry timeout), the query round trip
// to its survivor, and the Join_Req along its detour.
func (i *SMRPInstance) onFailureSet(fs []failure.Failure) {
	now := i.engine.Now()
	i.failedAt = now
	for _, f := range fs {
		i.trace.Add(now, trace.CatFailure, graph.Invalid, "%v injected", f)
		switch f.Kind {
		case failure.LinkFailure:
			i.net.FailLink(f.Edge.A, f.Edge.B)
		case failure.NodeFailure:
			i.net.FailNode(f.Node)
		}
		i.domain.ApplyFailure(f)
	}
	// Notice propagation times must be measured on the pre-flush tree (the
	// FailureNotice travels the still-intact dead branch).
	mask := i.net.Failed()
	notice := make(map[graph.NodeID]eventsim.Time)
	for _, m := range failure.DisconnectedMembers(i.session.Tree(), mask) {
		if d, ok := i.noticeDelay(m, mask); ok {
			notice[m] = d
		}
	}
	rep, err := i.session.Recover(fs...)
	if err != nil {
		// Only a batch that takes the source down is refused; the session
		// still learns of it, so later joins park instead of grafting.
		i.session.ApplyFailure(fs...)
		return
	}
	for _, m := range rep.Unrecovered {
		delete(i.pending, m)
		i.trace.Add(now, trace.CatPark, m, "no residual path: parked pending repair")
	}
	members := make([]graph.NodeID, 0, len(rep.Detours))
	for m := range rep.Detours {
		members = append(members, m)
	}
	slices.Sort(members)
	// The cut is detected after the hello timeout; the downstream endpoint
	// then floods a FailureNotice down the (still intact) dead subtree. A
	// member this batch cut while its own Join_Req was in flight hears no
	// notice: the request was lost, and the member retries after a backoff.
	detect := i.domain.DetectionTime()
	for _, m := range members {
		g := pendingGraft{path: rep.Detours[m]}
		if old, ok := i.pending[m]; ok {
			g.DetectedAt, g.retries = now+i.retryDelay(old.retries), old.retries+1
		} else {
			g.DetectedAt = now + detect + notice[m]
		}
		i.net.Sent++ // the query to the survivor
		g.RecoveryDistance = rep.RecoveryDistance[m]
		// Discovery is a query round trip along the detour, then the Join_Req
		// travels it once more.
		g.RestoredAt = g.DetectedAt + eventsim.Time(3*g.RecoveryDistance)
		i.pending[m] = g
	}
	for _, m := range members {
		why := "failure notice received"
		if r := i.pending[m].retries; r > 0 {
			why = fmt.Sprintf("join_req lost: retry %d", r)
		}
		i.schedule(m, trace.CatNotice, why)
	}
}

// noticeDelay computes how long the failure notice takes to travel from the
// cut point down the dead subtree to member m (0 when m borders the cut).
func (i *SMRPInstance) noticeDelay(m graph.NodeID, mask *graph.Mask) (eventsim.Time, bool) {
	tr := i.session.Tree()
	p, err := tr.AppendPathToSource(i.scratch[:0], m) // m → … → source
	i.scratch = p[:0]
	if err != nil {
		return 0, false
	}
	// Walk up from m; the cut is the first dead hop. The notice originates
	// at the downstream endpoint of that hop.
	var d float64
	for j := 0; j+1 < len(p); j++ {
		if mask.EdgeBlocked(p[j], p[j+1]) || mask.NodeBlocked(p[j+1]) {
			return eventsim.Time(d), true
		}
		w, _ := i.net.Graph().EdgeWeight(p[j], p[j+1])
		d += w
	}
	return 0, false // not actually cut on its own path
}

// pendingGraft is one restoration the session has committed and the network
// has not carried out yet: its timing, the path its Join_Req travels (member
// first, survivor last) and how many of its Join_Reqs later failures cut.
// landed is set once RestoredAt allows for the graft the survivor sits on.
type pendingGraft struct {
	Restoration
	path    graph.Path
	retries int
	landed  bool
}

// land returns when m's pending Join_Req lands. It stops at m's survivor, so
// when another pending graft put that node on the tree, m is live no earlier
// than that graft is.
func (i *SMRPInstance) land(m graph.NodeID) eventsim.Time {
	g := i.pending[m]
	if g.landed {
		return g.RestoredAt
	}
	g.landed = true
	i.pending[m] = g
	for o, og := range i.pending {
		if slices.Contains(og.path[:len(og.path)-1], g.path.Last()) {
			g.RestoredAt = max(g.RestoredAt, i.land(o))
		}
	}
	i.pending[m] = g
	return g.RestoredAt
}

// schedule plays member m's pending restoration out in virtual time: m learns
// it must reconnect at DetectedAt, its Join_Req leaves RecoveryDistance
// before it lands, and then m is back in service and refreshes again. Steps
// of a restoration that is no longer pending, or was re-timed, are dropped.
func (i *SMRPInstance) schedule(m graph.NodeID, cat trace.Category, why string) {
	i.land(m)
	g := i.pending[m]
	g.Member = m
	g.Latency = g.RestoredAt - i.failedAt
	i.pending[m] = g
	i.refreshGen[m]++ // the refresh loop of m's old branch stops
	gen := i.refreshGen[m]
	live := func() bool {
		_, ok := i.pending[m]
		return ok && i.refreshGen[m] == gen
	}
	now := i.engine.Now()
	i.engine.MustSchedule(g.DetectedAt-now, func() {
		if live() {
			i.trace.Add(i.engine.Now(), cat, m, "%s", why)
		}
	})
	i.engine.MustSchedule(max(g.RestoredAt-eventsim.Time(g.RecoveryDistance)-now, 0), func() {
		if live() && len(g.path) >= 2 {
			_ = i.net.SendAlong(g.path, JoinReq{Member: m, Path: g.path.Reverse()})
		}
	})
	i.engine.MustSchedule(g.RestoredAt-now, func() {
		if !live() {
			return
		}
		delete(i.pending, m)
		i.restorations[m] = g.Restoration
		i.trace.Add(i.engine.Now(), trace.CatRecovery, m,
			"restored rd=%.3f latency=%.3f", g.RecoveryDistance, float64(g.Latency))
		i.armRefresh(m)
	})
}

// Restorations returns the recorded per-member recoveries, sorted by member.
func (i *SMRPInstance) Restorations() []Restoration {
	out := make([]Restoration, 0, len(i.restorations))
	for _, r := range i.restorations {
		out = append(out, r)
	}
	slices.SortFunc(out, func(a, b Restoration) int { return int(a.Member - b.Member) })
	return out
}

// Multicast delivers one data packet from the source over the current tree,
// returning each reachable member's delivery time offset. Members whose
// branch is currently cut, or whose restoration is still in flight, receive
// nothing — the service disruption the recovery machinery exists to shorten.
func (i *SMRPInstance) Multicast() map[graph.NodeID]eventsim.Time {
	out := multicastOver(i.session.Tree(), i.net.Failed())
	for m := range i.pending {
		delete(out, m)
	}
	return out
}
