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
	// after its Join_Req is lost on a link that died while the request was in
	// flight (the multi-failure case). 0 defaults to RefreshInterval.
	RetryTimeout eventsim.Time
	// RetryBackoff is the per-attempt multiplier of RetryTimeout (bounded
	// exponential backoff, capped at HoldTime). Values < 1 default to 2.
	RetryBackoff float64
	// MaxRetries caps re-detour attempts per recovery episode; an exhausted
	// member parks until a repair. 0 defaults to 10.
	MaxRetries int
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
		MaxRetries:      10,
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
	if c.MaxRetries <= 0 {
		c.MaxRetries = 10
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
	if c.RetryTimeout < 0 || c.RetryBackoff < 0 || c.MaxRetries < 0 || c.RetryJitter < 0 {
		return fmt.Errorf("%w: retry knobs must be non-negative", ErrBadConfig)
	}
	return nil
}

// Restoration records one member's recovery from a failure.
type Restoration struct {
	Member graph.NodeID
	// DetectedAt is when the member learned of the failure (notification
	// down the dead subtree for SMRP; routing convergence for SPF).
	DetectedAt eventsim.Time
	// RestoredAt is when the member's new branch was grafted.
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
	// parked holds members whose recovery exhausted its options (no residual
	// path, or retries ran out): they degrade gracefully and wait for a
	// repair to re-admit them.
	parked map[graph.NodeID]bool
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
		parked:       make(map[graph.NodeID]bool),
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
			if !ok || now-last <= i.cfg.HoldTime {
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
		i.trace.Add(i.engine.Now(), trace.CatLeave, m, "leave_req completed")
	})
	return err
}

// InjectFailure schedules a persistent failure. Detection, notification of
// the dead subtree, local detour discovery, and re-grafting all play out in
// virtual time; per-member restoration latencies are recorded.
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

// onFailureSet applies a correlated failure batch atomically and starts
// SMRP's recovery machinery against the accumulated mask, so detours never
// route over a sibling cut discovered one step later.
func (i *SMRPInstance) onFailureSet(fs []failure.Failure) {
	i.failedAt = i.engine.Now()
	for _, f := range fs {
		i.trace.Add(i.engine.Now(), trace.CatFailure, graph.Invalid, "%v injected", f)
		switch f.Kind {
		case failure.LinkFailure:
			i.net.FailLink(f.Edge.A, f.Edge.B)
		case failure.NodeFailure:
			i.net.FailNode(f.Node)
		}
		i.domain.ApplyFailure(f)
	}

	mask := i.net.Failed()
	tr := i.session.Tree()
	disconnected := failure.DisconnectedMembers(tr, mask)
	if len(disconnected) == 0 {
		return
	}
	// Notice propagation times must be measured on the pre-flush tree (the
	// FailureNotice travels the still-intact dead branch).
	delays := make(map[graph.NodeID]eventsim.Time, len(disconnected))
	for _, m := range disconnected {
		if d, ok := i.noticeDelay(m, mask); ok {
			delays[m] = d
		}
	}
	// Flush dead control state; members re-graft individually below.
	if _, err := i.session.FlushDead(mask); err != nil {
		return
	}
	// The cut is detected after the hello timeout; the downstream endpoint
	// then floods a FailureNotice down the (still intact) dead subtree.
	detect := i.domain.DetectionTime()
	for _, m := range disconnected {
		m := m
		notifyDelay, ok := delays[m]
		if !ok {
			continue
		}
		i.engine.MustSchedule(detect+notifyDelay, func() {
			i.trace.Add(i.engine.Now(), trace.CatNotice, m, "failure notice received")
			i.recoverMember(m, mask)
		})
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

// detourFor resolves the member's current local detour: the shortest
// residual path from m to the nearest live on-tree node (the tree has been
// flushed, so every on-tree node is live).
func (i *SMRPInstance) detourFor(m graph.NodeID, mask *graph.Mask) (graph.Path, float64, bool) {
	tr := i.session.Tree()
	target, p, d := i.net.Graph().NearestOf(m, mask, func(n graph.NodeID) bool {
		return tr.OnTree(n) && !mask.NodeBlocked(n)
	})
	if target == graph.Invalid {
		return nil, 0, false
	}
	return p, d, true
}

// recoverMember runs the member's local-detour recovery: discovery (query
// round trip to the nearest survivor), then a Join_Req along the detour.
func (i *SMRPInstance) recoverMember(m graph.NodeID, mask *graph.Mask) {
	if i.session.Tree().IsMember(m) {
		return // already re-grafted
	}
	detectedAt := i.engine.Now()
	_, rd, ok := i.detourFor(m, mask)
	if !ok {
		i.park(m) // unrecoverable until a repair
		return
	}
	// Discovery: query out + response back along the detour.
	i.net.Sent++ // query message
	i.engine.MustSchedule(eventsim.Time(2*rd), func() {
		i.completeRecovery(m, detectedAt, mask, 0)
	})
}

// maxRecoveryRetries bounds re-resolution when concurrent grafts collide
// (the SPF baseline's fixed cap; SMRP instances use Config.MaxRetries).
const maxRecoveryRetries = 10

// completeRecovery re-resolves the detour (the tree may have grown through
// other members' recoveries) and grafts the member when the Join_Req lands.
func (i *SMRPInstance) completeRecovery(m graph.NodeID, detectedAt eventsim.Time, mask *graph.Mask, attempt int) {
	tr := i.session.Tree()
	if tr.IsMember(m) {
		return
	}
	if attempt > i.cfg.MaxRetries {
		i.park(m) // retry budget exhausted; wait for a repair
		return
	}
	if tr.OnTree(m) {
		// m came back as a relay on someone else's detour; become a member
		// in place — service is already flowing through m.
		if err := i.session.RecoverGraft(graph.Path{m}); err != nil {
			return
		}
		delete(i.parked, m)
		i.restorations[m] = Restoration{
			Member:     m,
			DetectedAt: detectedAt,
			RestoredAt: i.engine.Now(),
			Latency:    i.engine.Now() - i.failedAt,
		}
		i.armRefresh(m)
		return
	}
	detour, rd, ok := i.detourFor(m, mask)
	if !ok {
		i.park(m) // no residual path left
		return
	}
	i.engine.MustSchedule(eventsim.Time(rd), func() {
		i.graftDetour(m, detour, rd, detectedAt, attempt)
	})
	_ = i.net.SendAlong(detour, JoinReq{Member: m, Path: detour.Reverse()})
}

// graftDetour applies the detour graft on the oracle tree and records the
// restoration. If a concurrent graft invalidated the path, the recovery is
// re-resolved immediately against the current tree. If the detour itself was
// cut while the Join_Req was in flight (a later failure of the multi-failure
// regime), the request was lost on the dead link: the member re-detours
// after a bounded-exponential-backoff timeout with deterministic jitter.
func (i *SMRPInstance) graftDetour(m graph.NodeID, detour graph.Path, rd float64, detectedAt eventsim.Time, attempt int) {
	tr := i.session.Tree()
	if tr.IsMember(m) {
		return
	}
	if i.detourCut(detour) {
		i.scheduleRetry(m, detectedAt, attempt)
		return
	}
	// detour runs m→…→survivor; grafting wants survivor→…→m.
	if err := i.session.RecoverGraft(detour.Reverse()); err != nil {
		if tr.OnTree(m) || attempt < i.cfg.MaxRetries {
			i.completeRecovery(m, detectedAt, i.net.Failed(), attempt+1)
		}
		return
	}
	delete(i.parked, m)
	i.restorations[m] = Restoration{
		Member:           m,
		DetectedAt:       detectedAt,
		RestoredAt:       i.engine.Now(),
		Latency:          i.engine.Now() - i.failedAt,
		RecoveryDistance: rd,
	}
	i.trace.Add(i.engine.Now(), trace.CatRecovery, m,
		"local detour grafted rd=%.3f latency=%.3f", rd, float64(i.engine.Now()-i.failedAt))
	i.armRefresh(m)
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
// branch is currently cut receive nothing — the service disruption the
// recovery machinery exists to shorten.
func (i *SMRPInstance) Multicast() map[graph.NodeID]eventsim.Time {
	return multicastOver(i.session.Tree(), i.net.Failed())
}
