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
// failure batches, repairs, whole failure schedules, the parked-member
// degraded state, and the bounded-backoff retry timers that re-detour a
// member whose Join_Req was lost on a link that died while the request was
// in flight.

// InjectFailureSet schedules a correlated failure batch (an SRLG cut): every
// component in fs fails at the same instant, and recovery runs once against
// the combined mask.
func (i *SMRPInstance) InjectFailureSet(at eventsim.Time, fs ...failure.Failure) error {
	if at < i.engine.Now() {
		return fmt.Errorf("failure set: %w", ErrPastEvent)
	}
	if len(fs) == 0 {
		return fmt.Errorf("protocol: %w: empty failure set", failure.ErrBadSchedule)
	}
	if err := failure.Check(fs, i.net.Graph()); err != nil {
		return fmt.Errorf("protocol: failure set: %w", err)
	}
	batch := slices.Clone(fs)
	_, err := i.engine.Schedule(at-i.engine.Now(), func() { i.onFailureSet(batch) })
	return err
}

// InjectRepair schedules the restoration of failed components. Parked
// members re-run local-detour recovery (discovery, Join_Req, graft) as soon
// as the repair lands.
func (i *SMRPInstance) InjectRepair(at eventsim.Time, fs ...failure.Failure) error {
	if at < i.engine.Now() {
		return fmt.Errorf("repair: %w", ErrPastEvent)
	}
	if len(fs) == 0 {
		return fmt.Errorf("protocol: %w: empty repair set", failure.ErrBadSchedule)
	}
	if err := failure.Check(fs, i.net.Graph()); err != nil {
		return fmt.Errorf("protocol: repair: %w", err)
	}
	batch := slices.Clone(fs)
	_, err := i.engine.Schedule(at-i.engine.Now(), func() { i.onRepair(batch) })
	return err
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

// onRepair restores components in the network and routing views, then
// restarts recovery for every parked member (ascending, deterministic).
func (i *SMRPInstance) onRepair(fs []failure.Failure) {
	for _, f := range fs {
		i.trace.Add(i.engine.Now(), trace.CatRepair, graph.Invalid, "%v repaired", f)
		switch f.Kind {
		case failure.LinkFailure:
			i.net.RepairLink(f.Edge.A, f.Edge.B)
		case failure.NodeFailure:
			i.net.RepairNode(f.Node)
		}
		i.domain.RemoveFailure(f)
	}
	mask := i.net.Failed()
	for _, m := range i.Parked() {
		if mask.NodeBlocked(m) {
			continue // the member itself is still down
		}
		i.recoverMember(m, mask)
	}
}

// park moves a member into the degraded state: its recovery found no
// residual path (or ran out of retries) and it now waits for a repair.
func (i *SMRPInstance) park(m graph.NodeID) {
	if i.parked[m] {
		return
	}
	i.parked[m] = true
	i.trace.Add(i.engine.Now(), trace.CatPark, m, "no residual path: parked pending repair")
}

// Parked returns the members currently degraded (waiting for a repair),
// ascending.
func (i *SMRPInstance) Parked() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(i.parked))
	for m := range i.parked {
		out = append(out, m)
	}
	slices.Sort(out)
	return out
}

// detourCut reports whether any hop of the detour (or any node past the
// first) is currently failed — i.e. the Join_Req that was sent along it has
// been lost.
func (i *SMRPInstance) detourCut(detour graph.Path) bool {
	mask := i.net.Failed()
	for j := 0; j+1 < len(detour); j++ {
		if mask.EdgeBlocked(detour[j], detour[j+1]) || mask.NodeBlocked(detour[j+1]) {
			return true
		}
	}
	return false
}

// scheduleRetry arms the re-detour timer for a member whose Join_Req was
// lost: bounded exponential backoff (RetryTimeout · RetryBackoff^attempt,
// capped at HoldTime) plus deterministic jitter. The retry budget is
// capped at MaxRetries; an exhausted member parks.
func (i *SMRPInstance) scheduleRetry(m graph.NodeID, detectedAt eventsim.Time, attempt int) {
	if attempt >= i.cfg.MaxRetries {
		i.park(m)
		return
	}
	i.engine.MustSchedule(i.retryDelay(attempt), func() {
		i.completeRecovery(m, detectedAt, i.net.Failed(), attempt+1)
	})
}

// retryDelay computes the backoff delay for the given attempt. The jitter
// stream is consumed here and only here, so runs without lost Join_Reqs are
// byte-identical for any JitterSeed.
func (i *SMRPInstance) retryDelay(attempt int) eventsim.Time {
	d := float64(i.cfg.RetryTimeout)
	for a := 0; a < attempt; a++ {
		d *= i.cfg.RetryBackoff
		if d >= float64(i.cfg.HoldTime) {
			break
		}
	}
	if cap := float64(i.cfg.HoldTime); d > cap {
		d = cap
	}
	if i.cfg.RetryJitter > 0 {
		d += i.jitter.Float64() * float64(i.cfg.RetryJitter)
	}
	return eventsim.Time(d)
}
