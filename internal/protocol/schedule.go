package protocol

import (
	"fmt"
	"slices"

	"smrp/internal/eventsim"
	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/trace"
)

// This file is the protocol layer's multi-failure machinery: correlated
// failure batches, repairs, whole failure schedules, and the bounded-backoff
// retry delay of a member whose Join_Req a later failure cut while the
// request was in flight. The parked-member degraded state is the session's.

// InjectFailureSet schedules a correlated failure batch (an SRLG cut): every
// component in fs fails at the same instant, and recovery runs once against
// the combined mask.
func (i *SMRPInstance) InjectFailureSet(at eventsim.Time, fs ...failure.Failure) error {
	return i.inject(at, "failure set", fs, i.onFailureSet)
}

// InjectRepair schedules the restoration of failed components. The session
// re-admits every parked member the repair reconnects as soon as it lands;
// each then pays discovery and its Join_Req like a joiner.
func (i *SMRPInstance) InjectRepair(at eventsim.Time, fs ...failure.Failure) error {
	return i.inject(at, "repair set", fs, i.onRepair)
}

// InjectSchedule installs a whole multi-failure schedule: each event's
// failures are applied as one correlated batch and its repairs restore
// components (and re-admit parked members). Events may land while an earlier
// recovery is still in progress — that is the point.
func (i *SMRPInstance) InjectSchedule(s failure.Schedule) error {
	if err := s.Validate(); err != nil {
		return err
	}
	// Check every event before scheduling any, so a refused schedule
	// installs nothing.
	for _, ev := range s.Events {
		if err := failure.Check(slices.Concat(ev.Failures, ev.Repairs), i.net.Graph()); err != nil {
			return fmt.Errorf("protocol: schedule: %w", err)
		}
	}
	for _, ev := range s.Events {
		at := eventsim.Time(ev.At)
		if len(ev.Failures) > 0 {
			if err := i.InjectFailureSet(at, ev.Failures...); err != nil {
				return err
			}
		}
		if len(ev.Repairs) > 0 {
			if err := i.InjectRepair(at, ev.Repairs...); err != nil {
				return err
			}
		}
	}
	return nil
}

// onRepair restores components in the network and routing views, then lets
// core.Session.Repair re-admit the parked members it reconnects, ascending.
// Each is timed like a join: the discovery it would run now, then its
// Join_Req along the connection the session grafted.
func (i *SMRPInstance) onRepair(fs []failure.Failure) {
	now := i.engine.Now()
	for _, f := range fs {
		i.trace.Add(now, trace.CatRepair, graph.Invalid, "%v repaired", f)
		switch f.Kind {
		case failure.LinkFailure:
			i.net.RepairLink(f.Edge.A, f.Edge.B)
		case failure.NodeFailure:
			i.net.RepairNode(f.Node)
		}
		i.domain.RemoveFailure(f)
	}
	mask := i.net.Failed()
	discovery := make(map[graph.NodeID]eventsim.Time)
	for _, m := range i.session.Parked() {
		if !mask.NodeBlocked(m) {
			discovery[m] = i.queryLatency(m)
		}
	}
	rep, err := i.session.Repair(fs...)
	if err != nil {
		return
	}
	for k, m := range rep.Readmitted {
		conn := rep.Connections[k]
		rd, _ := conn.Weight(i.net.Graph()) // a grafted path is made of edges
		g := pendingGraft{path: conn.Reverse()}
		g.DetectedAt = now + discovery[m]
		g.RecoveryDistance = rd
		g.RestoredAt = g.DetectedAt + eventsim.Time(rd)
		i.pending[m] = g
		i.schedule(m, trace.CatRepair, "re-admitted: join_req sent")
	}
}

// Parked returns the members currently degraded (waiting for a repair),
// ascending.
func (i *SMRPInstance) Parked() []graph.NodeID { return i.session.Parked() }

// The retry schedule of a member whose Join_Req a later failure cut in
// flight: it re-detours after retryTimeout·retryBackoff^attempt, capped at
// HoldTime, plus up to retryJitter of deterministic jitter from a stream
// seeded by jitterSeed.
const (
	retryTimeout eventsim.Time = 5
	retryBackoff               = 2
	retryJitter  eventsim.Time = 0.5
	jitterSeed                 = 1
)

// retryDelay computes the backoff delay for the given attempt. The jitter
// stream is consumed here and only here, so runs without lost Join_Reqs draw
// nothing from it.
func (i *SMRPInstance) retryDelay(attempt int) eventsim.Time {
	d := float64(retryTimeout)
	for a := 0; a < attempt; a++ {
		d *= retryBackoff
		if d >= float64(i.cfg.HoldTime) {
			break
		}
	}
	if cap := float64(i.cfg.HoldTime); d > cap {
		d = cap
	}
	d += i.jitter.Float64() * float64(retryJitter)
	return eventsim.Time(d)
}
