package protocol

import (
	"fmt"

	"smrp/internal/eventsim"
	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/spfbase"
	"smrp/internal/trace"
)

// SPFInstance is the message-level SPF/PIM-style baseline: joins follow
// unicast routes, and recovery waits for unicast reconvergence (the global
// detour).
type SPFInstance struct {
	driver
	session *spfbase.Session
}

// NewSPFInstance builds an SPF protocol instance over g rooted at source.
func NewSPFInstance(g *graph.Graph, source graph.NodeID, cfg Config) (*SPFInstance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sess, err := spfbase.NewSession(g, source)
	if err != nil {
		return nil, err
	}
	inst := &SPFInstance{session: sess}
	if err := inst.init(g, cfg, sess); err != nil {
		return nil, err
	}
	return inst, nil
}

// Session exposes the control-plane state (read-only use).
func (i *SPFInstance) Session() *spfbase.Session { return i.session }

// ScheduleJoin enqueues a PIM-style join toward the source at the given
// time.
func (i *SPFInstance) ScheduleJoin(at eventsim.Time, m graph.NodeID) error {
	if at < i.engine.Now() {
		return fmt.Errorf("join of %d: %w", m, ErrPastEvent)
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

// InjectFailure schedules a persistent failure. Every disconnected member
// rejoins only after its router's unicast table has reconverged — the
// global-detour latency the paper's related work measured for PIM/OSPF.
func (i *SPFInstance) InjectFailure(at eventsim.Time, f failure.Failure) error {
	return i.inject(at, "failure", []failure.Failure{f}, i.onFailure)
}

// onFailure hands the failure to spfbase.Session.Fail, which flushes the
// dead state and reports each cut-off member's recovery distance; each
// recoverable member then waits for its router to reconverge.
func (i *SPFInstance) onFailure(fs []failure.Failure) {
	i.fail(fs)
	rep, err := i.session.Fail(fs...)
	if err != nil {
		return
	}
	for _, r := range rep.Recovered {
		m := r.Member
		conv := i.domain.ConvergenceTime(m, fs[0])
		if conv == eventsim.Infinity {
			continue
		}
		i.pending[m] = pendingGraft{Restoration: Restoration{Member: m, RecoveryDistance: r.RD}}
		i.engine.MustSchedule(conv, func() { i.reconverged(m) })
	}
}

// reconverged sends m's Join_Req once its router has reconverged, along the
// segment the session would graft now; m rejoins through the session when
// the request reaches the tree.
func (i *SPFInstance) reconverged(m graph.NodeID) {
	seg, err := i.session.JoinSegment(m) // merger → … → m
	if err != nil {
		delete(i.pending, m)
		return
	}
	g := i.pending[m]
	g.DetectedAt = i.engine.Now()
	i.pending[m] = g
	d, _ := seg.Weight(i.net.Graph()) // a join segment is made of edges
	i.engine.MustSchedule(eventsim.Time(d), func() {
		if i.session.Join(m) != nil {
			delete(i.pending, m)
			return
		}
		g.RestoredAt = i.engine.Now()
		g.Latency = g.RestoredAt - i.failedAt
		i.restored(m, g.Restoration)
	})
	if len(seg) >= 2 {
		_ = i.net.SendAlong(seg.Reverse(), JoinReq{Member: m, Path: seg})
	}
}
