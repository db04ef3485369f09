package hierarchy

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"smrp/internal/core"
	"smrp/internal/failure"
	"smrp/internal/graph"
)

// This file is §3.3.3's domain-confined recovery on the domain tree, for
// single failures and for the multi-failure regime alike: correlated batches
// that straddle domains, node failures (including a domain's own agent),
// graceful domain-wide degradation while an agent is down, and repair-driven
// revival with automatic re-admission.

// RecoveryReport describes a domain-confined recovery.
type RecoveryReport struct {
	// DomainID is the index of the recovery domain that handled the failure
	// (0 = the root domain, the transit core of a transit–stub topology).
	DomainID int
	// Level is the domain's depth in the hierarchy (0 = root).
	Level int
	// Heal is the domain-local SMRP recovery report, in the domain's local
	// ID space.
	Heal *core.HealReport
	// NodesInDomain is the size of the domain that had to react — every
	// other domain is untouched, which is the scalability argument of
	// §3.3.3.
	NodesInDomain int
	// DomainDown reports that the domain session's own root is down:
	// recovery there is suspended (Heal is nil) and everything it delivers to
	// is degraded as a group until a Repair revives the root.
	DomainDown bool
}

// domainBatch is the part of a failure set one recovery domain has to react
// to, translated into the domain's local ID space.
type domainBatch struct {
	dom   int
	local []failure.Failure
}

// attribute maps every failure onto the recovery domain(s) it touches and
// groups the translated failures per domain, in heal order. A link belongs
// to the deepest domain holding both ends, a gateway's uplink to the parent
// (whose session holds the gateway as an agent). A node failure hits the
// node's own domain and, when the node is that domain's gateway, also the
// parent. Touched domains heal deepest level first, then ascending index, so
// local damage is resolved before the levels above react to agent changes.
// A link no edge joins refuses the whole set, so a caller that checks the
// error before the first domain acts leaves every domain as it was.
func (s *NLevelSession) attribute(fs []failure.Failure) ([]domainBatch, error) {
	type attribution struct {
		dom   int
		local failure.Failure
	}
	atts := make([]attribution, 0, len(fs))
	for _, f := range fs {
		var doms []int
		switch f.Kind {
		case failure.LinkFailure:
			du, dv := s.topo.DomainOf(f.Edge.A), s.topo.DomainOf(f.Edge.B)
			switch {
			case du < 0 || dv < 0:
				// in no domain: doms stays empty
			case du == dv || s.topo.Domains[dv].Parent == du:
				doms = []int{du}
			case s.topo.Domains[du].Parent == dv:
				doms = []int{dv}
			}
		case failure.NodeFailure:
			if d := s.topo.DomainOf(f.Node); d >= 0 {
				doms = []int{d}
				if dom := &s.topo.Domains[d]; dom.Parent != -1 && f.Node == dom.Gateway {
					doms = append(doms, dom.Parent)
				}
			}
		}
		if len(doms) == 0 {
			return nil, fmt.Errorf("hierarchy: %v: %w", f, ErrFailureOutsideDomains)
		}
		for _, d := range doms {
			local, ok := s.sessions[d].localize(f)
			if !ok {
				return nil, fmt.Errorf("hierarchy: %v not inside domain %d's session: %w", f, d, ErrFailureOutsideDomains)
			}
			atts = append(atts, attribution{d, local})
		}
	}
	if err := failure.Check(fs, s.topo.Graph); err != nil {
		return nil, fmt.Errorf("hierarchy: %w", err)
	}
	slices.SortStableFunc(atts, func(a, b attribution) int {
		if c := cmp.Compare(s.topo.Domains[b.dom].Level, s.topo.Domains[a.dom].Level); c != 0 {
			return c
		}
		return cmp.Compare(a.dom, b.dom)
	})
	var batches []domainBatch
	for _, a := range atts {
		if n := len(batches); n == 0 || batches[n-1].dom != a.dom {
			batches = append(batches, domainBatch{dom: a.dom})
		}
		b := &batches[len(batches)-1]
		b.local = append(b.local, a.local)
	}
	return batches, nil
}

// localize translates f into the domain session's ID space; ok is false when
// the session does not hold every node f names.
func (d *domainSession) localize(f failure.Failure) (failure.Failure, bool) {
	if f.Kind == failure.NodeFailure {
		n, ok := d.nm.ToSub(f.Node)
		return failure.NodeDown(n), ok
	}
	a, okA := d.nm.ToSub(f.Edge.A)
	b, okB := d.nm.ToSub(f.Edge.B)
	return failure.LinkDown(a, b), okA && okB
}

// down reports whether the domain session's own root — the domain's agent,
// the relaying agent of the chain child, or the true source — is blocked by
// the domain's accumulated failure mask. A down domain suspends recovery:
// everything it delivers to is degraded as a group until a repair revives
// the root.
func (d *domainSession) down() bool { return d.session.SourceFailed() }

// Recover handles one failure: RecoverSet of that failure alone. When the
// failure touches two domains (a gateway crash) the deeper domain's report is
// returned; RecoverSet exposes both.
func (s *NLevelSession) Recover(f failure.Failure) (*RecoveryReport, error) {
	reports, err := s.RecoverSet([]failure.Failure{f})
	if err != nil {
		return nil, err
	}
	return reports[0], nil
}

// RecoverSet handles a correlated failure batch (an SRLG cut): each failure
// is attributed to the recovery domain(s) it touches, and every touched
// domain heals its own sub-tree — all other domains are untouched, which is
// the scalability argument of §3.3.3. Domains whose root is (or goes) down
// degrade gracefully: recovery there is suspended, the failures keep
// accumulating in the domain's mask, and the report carries DomainDown; a
// later Repair that revives the root reconciles the domain automatically.
func (s *NLevelSession) RecoverSet(fs []failure.Failure) ([]*RecoveryReport, error) {
	if len(fs) == 0 {
		return nil, fmt.Errorf("hierarchy: recover: %w: empty failure set", failure.ErrBadSchedule)
	}
	batches, err := s.attribute(fs)
	if err != nil {
		return nil, err
	}
	reports := make([]*RecoveryReport, 0, len(batches))
	for _, b := range batches {
		ds, d := s.sessions[b.dom], &s.topo.Domains[b.dom]
		rep := &RecoveryReport{DomainID: b.dom, Level: d.Level, NodesInDomain: len(d.Nodes) + len(d.Children)}
		rep.Heal, err = ds.session.Recover(b.local...)
		switch {
		case errors.Is(err, failure.ErrSourceFailed):
			// The domain's root just failed, or was down already. Either way
			// core rejects the batch before it touches the tree, and in the
			// first case before it touches the mask (so servers can't be
			// corrupted by a rejected request) — fold it in explicitly: the
			// domain degrades as a group (see Parked) and revival must
			// reconcile against every accumulated failure.
			ds.session.ApplyFailure(b.local...)
			rep.DomainDown = true
		case err != nil:
			return nil, fmt.Errorf("hierarchy: heal domain %d: %w", b.dom, err)
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// RepairSummary describes a hierarchy-level repair: which domains came back
// from the degraded state and which receivers were re-admitted.
type RepairSummary struct {
	// Repaired lists the components restored.
	Repaired []failure.Failure
	// Revived lists recovery domains whose root came back up (and whose
	// sub-tree was reconciled against everything that failed while it was
	// down), deepest level first, then ascending index.
	Revived []int
	// Readmitted lists receivers this repair brought back from the degraded
	// state, wherever in the hierarchy their delivery was cut, ascending
	// (full-graph IDs).
	Readmitted []graph.NodeID
	// StillParked lists receivers that remain degraded afterwards.
	StillParked []graph.NodeID
}

// Repair restores failed components across the hierarchy. Each touched
// domain lifts the repairs from its mask and automatically re-admits the
// members the repair reconnects; a domain whose root comes back is
// reconciled against every failure that accumulated while it was down.
func (s *NLevelSession) Repair(fs ...failure.Failure) (*RepairSummary, error) {
	batches, err := s.attribute(fs)
	if err != nil {
		return nil, err
	}
	sum := &RepairSummary{Repaired: fs}
	before := s.Parked()
	for _, b := range batches {
		ds := s.sessions[b.dom]
		wasDown := ds.down()
		if _, err := ds.session.Repair(b.local...); err != nil {
			return nil, fmt.Errorf("hierarchy: repair domain %d: %w", b.dom, err)
		}
		if wasDown && !ds.down() {
			// The root is back: reconcile the domain tree against whatever
			// else failed while it was suspended.
			if _, err := ds.session.Reconcile(); err != nil {
				return nil, fmt.Errorf("hierarchy: revive domain %d: %w", b.dom, err)
			}
			sum.Revived = append(sum.Revived, b.dom)
		}
	}
	sum.StillParked = s.Parked()
	for _, m := range before {
		if _, still := slices.BinarySearch(sum.StillParked, m); !still {
			sum.Readmitted = append(sum.Readmitted, m)
		}
	}
	return sum, nil
}

// Parked lists the receivers currently degraded, ascending: those whose
// delivery route crosses a down domain, or on whose route a domain session
// has parked the next hop (the receiver itself in its own domain, or the
// gateway that carries it in a domain above).
func (s *NLevelSession) Parked() []graph.NodeID {
	out := make([]graph.NodeID, 0)
	for m := range s.members {
		if _, err := s.EndToEndDelay(m); errors.Is(err, core.ErrPartitioned) {
			out = append(out, m)
		}
	}
	slices.Sort(out)
	return out
}
