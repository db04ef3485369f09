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
}

// DefaultConfig returns the protocol defaults used by the examples and the
// latency experiments.
func DefaultConfig() Config {
	return Config{
		SMRP:            core.DefaultConfig(),
		Routing:         routing.DefaultConfig(),
		RefreshInterval: 5,
		HoldTime:        16,
	}
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
	driver
	session *core.Session
	// jitter is the deterministic retry-jitter stream; it is consumed only
	// when a retry actually fires.
	jitter *topology.RNG
}

// NewSMRPInstance builds an SMRP protocol instance over g rooted at source.
func NewSMRPInstance(g *graph.Graph, source graph.NodeID, cfg Config) (*SMRPInstance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sess, err := core.NewSession(g, source, cfg.SMRP)
	if err != nil {
		return nil, err
	}
	inst := &SMRPInstance{session: sess, jitter: topology.NewRNG(jitterSeed)}
	if err := inst.init(g, cfg, sess); err != nil {
		return nil, err
	}
	return inst, nil
}

// Session exposes the control-plane state (read-only use).
func (i *SMRPInstance) Session() *core.Session { return i.session }

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

// InjectFailure schedules a persistent failure. Detection, notification of
// the dead subtree, local detour discovery, and the Join_Reqs along the
// detours all play out in virtual time; per-member restoration latencies are
// recorded.
func (i *SMRPInstance) InjectFailure(at eventsim.Time, f failure.Failure) error {
	return i.inject(at, "failure", []failure.Failure{f}, i.onFailureSet)
}

// onFailureSet applies a correlated failure batch atomically. The session
// recovers at once through core.Session.Recover, against the accumulated
// mask; what plays out in virtual time is each regrafted member's share of
// that report: the failure notice (or a retry timeout), the query round trip
// to its survivor, and the Join_Req along its detour.
func (i *SMRPInstance) onFailureSet(fs []failure.Failure) {
	now := i.engine.Now()
	i.fail(fs)
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
	// The cut is detected after the hello timeout; the downstream endpoint
	// then floods a FailureNotice down the (still intact) dead subtree. A
	// member this batch cut while its own Join_Req was in flight hears no
	// notice: the request was lost, and the member retries after a backoff.
	detect := i.domain.DetectionTime()
	for _, r := range rep.Recovered {
		m := r.Member
		g := pendingGraft{path: r.Detour}
		if old, ok := i.pending[m]; ok {
			g.DetectedAt, g.retries = now+i.retryDelay(old.retries), old.retries+1
		} else {
			g.DetectedAt = now + detect + notice[m]
		}
		i.net.Sent++ // the query to the survivor
		g.RecoveryDistance = r.RD
		// Discovery is a query round trip along the detour, then the Join_Req
		// travels it once more.
		g.RestoredAt = g.DetectedAt + eventsim.Time(3*g.RecoveryDistance)
		i.pending[m] = g
	}
	for _, r := range rep.Recovered {
		why := "failure notice received"
		if n := i.pending[r.Member].retries; n > 0 {
			why = fmt.Sprintf("join_req lost: retry %d", n)
		}
		i.schedule(r.Member, trace.CatNotice, why)
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
		if live() {
			i.restored(m, g.Restoration)
		}
	})
}
