// Megascale architecture study: the same structurally-defined failure/
// recovery schedule driven against a flat session and an N-level hierarchy at
// growing network sizes. The headline is the paper's scaling argument made
// concrete: per-recovery-event settled work (the CI-stable unit of SPF
// effort) stays bounded by the domain size in the hierarchy while it grows
// with N on the flat topology — and the price is memory, accounted here
// deterministically per component (the shared full graph, and what the
// per-domain views of it own).
//
// Wall-clock appears nowhere in the result: every number is an exact counter
// or a byte count computed from element sizes, so the rendered report is
// byte-identical for any worker count (see
// TestMegascaleDeterministicAcrossWorkerCounts) and means the same thing on
// any machine.
package experiment

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"smrp/internal/core"
	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/hierarchy"
	"smrp/internal/runner"
	"smrp/internal/topology"
)

// megascaleEvents is the number of recovery events driven per arm: enough to
// average over members attached near and far from the source, few enough that
// the 100k-node arms stay inside a CI budget.
const megascaleEvents = 8

// DefaultMegascaleSizes are the network sizes the study sweeps by default.
var DefaultMegascaleSizes = []int{10_000, 50_000, 100_000}

// MegascaleArm is one architecture's outcome at one network size.
type MegascaleArm struct {
	Nodes int // realized node count (hierarchy rounds up to a complete tree)
	Edges int

	Members     int // receivers admitted
	JoinSettled int // nodes settled by candidate enumeration during admission

	Events         int // recovery events driven (branch-cut failure → heal → repair)
	RecoverSettled int // nodes settled by recovery + readmission across all events
	Parked         int // members left parked (partitioned) after the last event

	// GraphBytes is the deterministic footprint of the full topology;
	// SessionBytes is what the architecture adds on top (zero for the flat
	// session, which routes over the shared graph; what the per-domain views
	// of it own for the hierarchy). Domains is 1 for the flat arm.
	GraphBytes   int64
	SessionBytes int64
	Domains      int
}

// SettledPerEvent is the arm's mean restoration work per event: every node
// settled by the heal's nearest-survivor sweeps plus the repair's readmission
// path selections.
func (a MegascaleArm) SettledPerEvent() float64 {
	if a.Events == 0 {
		return 0
	}
	return float64(a.RecoverSettled) / float64(a.Events)
}

// Degree is the arm's average node degree, 2·Edges/Nodes: the arcs per node
// its memory column pays for.
func (a MegascaleArm) Degree() float64 {
	if a.Nodes == 0 {
		return 0
	}
	return 2 * float64(a.Edges) / float64(a.Nodes)
}

// MegascaleRow pairs the two arms at one target size.
type MegascaleRow struct {
	Target int
	Flat   MegascaleArm
	Hier   MegascaleArm
}

// MegascaleResult is the full sweep.
type MegascaleResult struct {
	Groups   int  // members per arm
	Events   int  // recovery events per arm
	HierOnly bool // the million-node tier: flat arm skipped, Flat rows zero
	Rows     []MegascaleRow
}

// Render prints the study. Counters and byte accounting only — no clocks.
func (r *MegascaleResult) Render() string {
	if r.HierOnly {
		return r.renderHierOnly()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Megascale architecture study (flat vs hierarchical, %d members, %d recovery events per arm)\n",
		r.Groups, r.Events)
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  N=%d (flat %d nodes / %d edges, degree %.1f; hier %d nodes / %d edges, degree %.1f, in %d domains)\n",
			row.Target, row.Flat.Nodes, row.Flat.Edges, row.Flat.Degree(), row.Hier.Nodes, row.Hier.Edges, row.Hier.Degree(), row.Hier.Domains)
		fmt.Fprintf(&b, "    join settled:        flat=%-10d hier=%-10d (%.1fx less)\n",
			row.Flat.JoinSettled, row.Hier.JoinSettled, ratioOf(row.Flat.JoinSettled, row.Hier.JoinSettled))
		fmt.Fprintf(&b, "    settled/event:       flat=%-10.1f hier=%-10.1f (%.1fx less, %d/%d events, parked %d/%d)\n",
			row.Flat.SettledPerEvent(), row.Hier.SettledPerEvent(),
			ratioOf(row.Flat.RecoverSettled*row.Hier.Events, row.Hier.RecoverSettled*row.Flat.Events),
			row.Flat.Events, row.Hier.Events, row.Flat.Parked, row.Hier.Parked)
		fmt.Fprintf(&b, "    memory:              flat graph=%s; hier graph=%s + domain views=%s\n",
			fmtBytes(row.Flat.GraphBytes), fmtBytes(row.Hier.GraphBytes), fmtBytes(row.Hier.SessionBytes))
	}
	return b.String()
}

// renderHierOnly prints the hierarchical-only tier: the sizes where the flat
// control arm is no longer worth running (a single flat recovery event at
// N=10⁶ sweeps more nodes than the whole hierarchical schedule), so only the
// architecture that scales is reported.
func (r *MegascaleResult) renderHierOnly() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Megascale architecture study (hierarchical tier, %d members, %d recovery events per arm)\n",
		r.Groups, r.Events)
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  N=%d (%d nodes / %d edges, degree %.1f, in %d domains)\n",
			row.Target, row.Hier.Nodes, row.Hier.Edges, row.Hier.Degree(), row.Hier.Domains)
		fmt.Fprintf(&b, "    join settled:        %d\n", row.Hier.JoinSettled)
		fmt.Fprintf(&b, "    settled/event:       %.1f (%d events, parked %d)\n",
			row.Hier.SettledPerEvent(), row.Hier.Events, row.Hier.Parked)
		fmt.Fprintf(&b, "    memory:              graph=%s + domain views=%s\n",
			fmtBytes(row.Hier.GraphBytes), fmtBytes(row.Hier.SessionBytes))
	}
	return b.String()
}

// ratioOf renders a/b guarding the degenerate denominators.
func ratioOf(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// fmtBytes renders a byte count with a fixed KiB/MiB unit choice (stable
// across sizes — no locale or precision drift).
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	default:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
}

// megascaleConfig is the session configuration both arms run: default SMRP
// path selection with reshaping off, so the settled counters isolate
// admission and recovery work (the churn study characterizes reshaping).
func megascaleConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.ReshapeDelta = 0
	cfg.PeriodicReshape = false
	return cfg
}

// runMegascaleFlat drives the schedule against a flat session on a
// constant-density plane topology.
func runMegascaleFlat(n int, t runner.Trial, groups int) (MegascaleArm, error) {
	var arm MegascaleArm
	g, _, err := topology.FlatMegascale(n, t.Seed)
	if err != nil {
		return arm, err
	}
	arm.Nodes, arm.Edges = g.NumNodes(), g.NumEdges()
	arm.GraphBytes = g.MemoryFootprint()
	arm.Domains = 1

	rng := t.RNG
	source := graph.NodeID(rng.Intn(n))
	sess, err := core.NewSession(g, source, megascaleConfig())
	if err != nil {
		return arm, err
	}
	seen := map[graph.NodeID]bool{source: true}
	members := make([]graph.NodeID, 0, groups)
	for len(members) < groups {
		m := graph.NodeID(rng.Intn(n))
		if seen[m] {
			continue
		}
		seen[m] = true
		if _, err := sess.Join(m); err != nil {
			return arm, fmt.Errorf("megascale flat join %d: %w", m, err)
		}
		members = append(members, m)
	}
	arm.Members = len(members)
	arm.JoinSettled = sess.Stats().EnumSettled

	// Each event cuts the whole branch serving member e mod G — the uplink of
	// its top ancestor, the edge right below the source on its delivery path —
	// heals the survivors via local detours, then repairs the link (readmitting
	// anyone parked). The branch cut is the schedule shape both arms share.
	for e := 0; e < megascaleEvents; e++ {
		m := members[e%len(members)]
		ta := sess.Tree().TopAncestor(m)
		if ta == graph.Invalid {
			continue // member currently parked; a later heal re-admits it
		}
		f := failure.LinkDown(ta, source)
		if _, err := sess.Recover(f); err != nil {
			return arm, fmt.Errorf("megascale flat recover %v: %w", f.Edge, err)
		}
		arm.Events++
		if _, err := sess.Repair(f); err != nil {
			return arm, fmt.Errorf("megascale flat repair %v: %w", f.Edge, err)
		}
	}
	st := sess.Stats()
	arm.RecoverSettled = st.HealSettled + st.EnumSettled - arm.JoinSettled
	arm.Parked = len(sess.Parked())
	return arm, nil
}

// runMegascaleHier drives the same schedule shape against an N-level
// hierarchy sized to the same target.
func runMegascaleHier(n int, t runner.Trial, groups int) (MegascaleArm, error) {
	var arm MegascaleArm
	topo, err := topology.GenerateMegascale(topology.MegascaleConfig{TargetNodes: n}, t.Seed)
	if err != nil {
		return arm, err
	}
	g := topo.Graph
	arm.Nodes, arm.Edges = g.NumNodes(), g.NumEdges()
	arm.GraphBytes = g.MemoryFootprint()

	rng := t.RNG
	leaves := topo.Leaves()
	if len(leaves) < 2 {
		return arm, fmt.Errorf("megascale hier: only %d leaf domains", len(leaves))
	}
	pickIn := func(d *topology.NLevelDomain) graph.NodeID {
		for {
			m := d.Nodes[rng.Intn(len(d.Nodes))]
			if m != d.Gateway {
				return m
			}
		}
	}
	srcDom := &topo.Domains[leaves[0]]
	source := pickIn(srcDom)
	sess, err := hierarchy.NewNLevel(topo, source, megascaleConfig())
	if err != nil {
		return arm, err
	}
	arm.SessionBytes = sess.SubgraphBytes()
	arm.Domains = sess.NumDomains()

	// One member in each of `groups` leaf domains, spread evenly across the
	// leaf list so the tree exercises distinct subtrees of the hierarchy.
	rest := leaves[1:]
	members := make([]graph.NodeID, 0, groups)
	for i := 0; i < groups && i < len(rest); i++ {
		d := &topo.Domains[rest[(i*len(rest))/min(groups, len(rest))]]
		m := pickIn(d)
		if err := sess.Join(m); err != nil {
			return arm, fmt.Errorf("megascale hier join %d: %w", m, err)
		}
		members = append(members, m)
	}
	arm.Members = len(members)
	arm.JoinSettled, _ = sess.SettledWork()

	// The same branch-cut schedule, confined by construction: the cut is the
	// uplink of the member's top ancestor inside its domain sub-session, so
	// heal and repair touch exactly one paper-sized domain per event.
	for e := 0; e < megascaleEvents; e++ {
		m := members[e%len(members)]
		f, err := sess.WorstCaseFor(m)
		if errors.Is(err, core.ErrPartitioned) {
			continue // parked inside its domain; a later heal re-admits it
		}
		if err != nil {
			return arm, fmt.Errorf("megascale hier: %w", err)
		}
		if _, err := sess.Recover(f); err != nil {
			return arm, fmt.Errorf("megascale hier recover %v: %w", f, err)
		}
		arm.Events++
		if _, err := sess.Repair(f); err != nil {
			return arm, fmt.Errorf("megascale hier repair %v: %w", f, err)
		}
	}
	enum, heal := sess.SettledWork()
	arm.RecoverSettled = heal + enum - arm.JoinSettled
	for i := 0; i < sess.NumDomains(); i++ {
		ds, _, err := sess.DomainSession(i)
		if err != nil {
			return arm, err
		}
		arm.Parked += len(ds.Parked())
	}
	return arm, nil
}

// RunMegascale executes the study: for every size, one flat trial and one
// hierarchical trial, fanned out on the worker pool as independent trials and
// folded in order (byte-identical output for any worker count — each trial's
// topology and schedule derive from (seed, trial index) alone).
//
// hierOnly selects the hierarchical-only tier: the same membership and
// branch-cut schedule with the flat control arm skipped, which is what admits
// sizes up to N=10⁶ — the hierarchy's work per event stays domain-bounded
// while a flat arm at that size would sweep the million nodes on every
// recovery. Trial seeds differ from the two-arm study (one trial per size
// instead of two), so hier numbers are comparable within a mode, not across
// modes.
func RunMegascale(ctx context.Context, rc RunConfig, sizes []int, groups int, hierOnly bool) (*MegascaleResult, error) {
	if len(sizes) == 0 {
		sizes = DefaultMegascaleSizes
	}
	if groups < 1 {
		return nil, fmt.Errorf("experiment: megascale: groups = %d must be >= 1", groups)
	}
	for _, n := range sizes {
		if n < 1000 {
			return nil, fmt.Errorf("experiment: megascale: size %d too small (need >= 1000)", n)
		}
	}
	perSize := 2
	if hierOnly {
		perSize = 1
	}
	arms, err := runner.Map(ctx, rc.pool(), perSize*len(sizes), func(_ context.Context, t runner.Trial) (MegascaleArm, error) {
		n := sizes[t.Index/perSize]
		if !hierOnly && t.Index%2 == 0 {
			return runMegascaleFlat(n, t, groups)
		}
		return runMegascaleHier(n, t, groups)
	})
	if err != nil {
		return nil, err
	}
	res := &MegascaleResult{Groups: groups, Events: megascaleEvents, HierOnly: hierOnly}
	for i, n := range sizes {
		row := MegascaleRow{Target: n}
		if hierOnly {
			row.Hier = arms[i]
		} else {
			row.Flat, row.Hier = arms[2*i], arms[2*i+1]
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
