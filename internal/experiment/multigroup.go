// Multigroup megascale study: thousands of concurrent multicast groups on
// ONE shared frozen megascale topology with ONE shared lock-free SPF cache.
//
// This is the control-plane shape the sparse tree backend exists for. A
// production head-end carries one session per channel, and channel
// popularity is Zipf-distributed: a handful of groups are large, the long
// tail is tiny. With dense per-session state every group — even a two-member
// tail channel — pays O(topology) standing bytes, so the fleet's memory is
// groups × topology and the topology size caps the channel count. Sparse
// storage makes each group pay O(|tree| + |members|), so the fleet costs
// what the trees actually contain.
//
// Every group derives its source, membership, and branch-cut recovery
// schedule from (seed, group rank) alone and advances on the worker pool;
// results fold in rank order, so the rendered report is byte-identical for
// any worker count (see TestMultigroupDeterministicAcrossWorkerCounts).
// Counters and deterministic byte accounting only — joins/sec is layered on
// by the bench harness, which owns the clock.
package experiment

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"smrp/internal/core"
	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/runner"
	"smrp/internal/topology"
)

// Multigroup defaults: a 50k-node shared plane carrying two thousand groups,
// the most popular of which has 64 receivers. Sized so the full study is an
// opt-in minute, not a CI gate; the smoke gate runs a reduced shape.
const (
	DefaultMultigroupNodes  = 50_000
	DefaultMultigroupGroups = 2000
	DefaultMultigroupMax    = 64

	// multigroupMinMembers floors the Zipf tail: every group has at least
	// two receivers so the branch-cut schedule has a branch to cut.
	multigroupMinMembers = 2
	// multigroupEvents is the branch-cut recovery events driven per group.
	multigroupEvents = 2
)

// multigroupSize returns the membership of the group at popularity rank
// (0-based): the harmonic Zipf profile max/(rank+1), floored at
// multigroupMinMembers. Rank 0 is the headline channel; the tail is flat at
// the floor.
func multigroupSize(rank, maxMembers int) int {
	s := maxMembers / (rank + 1)
	if s < multigroupMinMembers {
		return multigroupMinMembers
	}
	return s
}

// multigroupGroup is one group's outcome.
type multigroupGroup struct {
	members        int
	joinSettled    int
	events         int
	recoverSettled int
	parked         int
	standingBytes  int64

	// denseTwinBytes is set only for rank 0: the standing footprint of a
	// dense-storage twin session driven through the identical admission, the
	// in-study reference the sparse saving is reported against.
	denseTwinBytes int64

	violations []string
}

// MultigroupResult aggregates the study.
type MultigroupResult struct {
	Groups     int // concurrent groups (sessions) on the shared topology
	Nodes      int // shared-topology size
	Edges      int
	MaxMembers int // rank-0 group size (Zipf maximum)

	Members     int // receivers admitted across all groups
	JoinSettled int // nodes settled by candidate enumeration during admission

	Events         int // branch-cut recovery events driven across all groups
	RecoverSettled int // nodes settled by recovery + readmission
	Parked         int // members left parked after each group's last event

	// Standing-bytes accounting across groups, from the deterministic
	// Session.MemoryFootprint (element counts × fixed sizes, never live
	// heap): the fleet sum, the median, and the largest single group.
	BytesTotal int64
	BytesP50   int64
	BytesMax   int64

	// Rank0Bytes is the rank-0 (most popular) group's sparse footprint and
	// DenseTwinBytes the same group's footprint replayed on the dense
	// backend — the per-group price the sparse backend avoids, measured on
	// this topology rather than modeled.
	Rank0Bytes     int64
	DenseTwinBytes int64

	// Violations lists per-group integrity failures; empty on a healthy run.
	Violations []string
}

// SettledPerEvent is the mean restoration work per branch-cut event.
func (r *MultigroupResult) SettledPerEvent() float64 {
	if r.Events == 0 {
		return 0
	}
	return float64(r.RecoverSettled) / float64(r.Events)
}

// BytesMean is the mean standing bytes per group.
func (r *MultigroupResult) BytesMean() int64 {
	if r.Groups == 0 {
		return 0
	}
	return r.BytesTotal / int64(r.Groups)
}

// DenseSavings is DenseTwinBytes over the rank-0 sparse footprint — how many
// times more a dense session would cost the study's most popular group.
func (r *MultigroupResult) DenseSavings() float64 {
	if r.Rank0Bytes == 0 {
		return 0
	}
	return float64(r.DenseTwinBytes) / float64(r.Rank0Bytes)
}

// Err is nil on a clean run, else an error counting the integrity violations.
func (r *MultigroupResult) Err() error { return violationsErr("multigroup", "integrity", r.Violations) }

// Render prints the study. Counters and byte accounting only — no clocks.
func (r *MultigroupResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Multigroup megascale study (%d sparse-session groups on one shared %d-node/%d-edge topology)\n",
		r.Groups, r.Nodes, r.Edges)
	fmt.Fprintf(&b, "  group sizes:    Zipf harmonic, max=%d floor=%d -> %d receivers total\n",
		r.MaxMembers, multigroupMinMembers, r.Members)
	fmt.Fprintf(&b, "  admission:      joins=%d settled=%d (%.1f settled/join)\n",
		r.Members, r.JoinSettled, ratioF(r.JoinSettled, r.Members))
	fmt.Fprintf(&b, "  recovery:       events=%d settled=%d (%.1f settled/event), parked=%d\n",
		r.Events, r.RecoverSettled, r.SettledPerEvent(), r.Parked)
	fmt.Fprintf(&b, "  standing bytes: mean=%s p50=%s max=%s total=%s per fleet\n",
		fmtBytes(r.BytesMean()), fmtBytes(r.BytesP50), fmtBytes(r.BytesMax), fmtBytes(r.BytesTotal))
	fmt.Fprintf(&b, "  dense twin (rank-0 group): %s vs sparse %s (%.0fx less)\n",
		fmtBytes(r.DenseTwinBytes), fmtBytes(r.Rank0Bytes), r.DenseSavings())
	renderViolations(&b, "integrity", r.Violations)
	return b.String()
}

// ratioF renders a/b guarding a zero denominator.
func ratioF(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// multigroupConfig is the per-group session configuration: megascale
// settings (reshaping off, so counters isolate admission and recovery) with
// sparse tree storage forced — the study characterizes the sparse backend at
// every topology size, including smoke-sized shapes below the auto
// threshold.
func multigroupConfig() core.Config {
	cfg := megascaleConfig()
	cfg.TreeStorage = core.StorageSparse
	return cfg
}

// playMultigroupSchedule drives one group's whole workload on the given
// storage backend: admission of members through the batched join path, then
// the branch-cut schedule (cut the edge right below the source on one
// member's delivery path, recover the subtree through local detours, repair
// the link, readmitting anyone parked).
func playMultigroupSchedule(g *graph.Graph, rank int, source graph.NodeID, members []graph.NodeID, storage core.TreeStorage) (sess *core.Session, events, joinSettled int, err error) {
	cfg := multigroupConfig()
	cfg.TreeStorage = storage
	sess, err = core.NewSession(g, source, cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	if _, errs := sess.JoinBatch(members); errs != nil {
		for i, jerr := range errs {
			if jerr != nil {
				return nil, 0, 0, fmt.Errorf("multigroup: group %d join %d: %w", rank, members[i], jerr)
			}
		}
	}
	joinSettled = sess.Stats().EnumSettled
	for e := 0; e < multigroupEvents; e++ {
		m := members[e%len(members)]
		ta := sess.Tree().TopAncestor(m)
		if ta == graph.Invalid {
			continue // member currently parked; a later event re-admits it
		}
		f := failure.LinkDown(ta, source)
		if _, err := sess.Recover(f); err != nil {
			return nil, 0, 0, fmt.Errorf("multigroup: group %d recover %v: %w", rank, f.Edge, err)
		}
		events++
		if _, err := sess.Repair(f); err != nil {
			return nil, 0, 0, fmt.Errorf("multigroup: group %d repair %v: %w", rank, f.Edge, err)
		}
	}
	return sess, events, joinSettled, nil
}

// runMultigroupGroup plays one group, drawing its source and Zipf-sized
// membership from the trial's RNG stream.
func runMultigroupGroup(g *graph.Graph, t runner.Trial, maxMembers int, denseTwin bool) (multigroupGroup, error) {
	var out multigroupGroup
	n := g.NumNodes()
	rng := t.RNG
	source := graph.NodeID(rng.Intn(n))
	size := multigroupSize(t.Index, maxMembers)
	seen := map[graph.NodeID]bool{source: true}
	members := make([]graph.NodeID, 0, size)
	for len(members) < size {
		m := graph.NodeID(rng.Intn(n))
		if !seen[m] {
			seen[m] = true
			members = append(members, m)
		}
	}

	sess, events, joinSettled, err := playMultigroupSchedule(g, t.Index, source, members, core.StorageSparse)
	if err != nil {
		return out, err
	}
	if !sess.Tree().SparseStorage() {
		return out, fmt.Errorf("multigroup: group %d came up on dense storage", t.Index)
	}
	st := sess.Stats()
	out.members = len(members)
	out.joinSettled = joinSettled
	out.recoverSettled = st.HealSettled + st.EnumSettled - joinSettled
	out.events = events
	out.parked = len(sess.Parked())
	out.standingBytes = sess.MemoryFootprint()
	if err := sess.Tree().Validate(); err != nil {
		out.violations = append(out.violations,
			fmt.Sprintf("group %d (seed %d): tree invalid after schedule: %v", t.Index, t.Seed, err))
	}

	// Rank 0 replays the identical schedule on a dense-storage twin: the
	// dense footprint in the report is measured on this topology rather than
	// modeled, and the twin doubles as an in-study equivalence probe — every
	// work counter must agree between backends.
	if denseTwin {
		twin, _, _, err := playMultigroupSchedule(g, t.Index, source, members, core.StorageDense)
		if err != nil {
			return out, err
		}
		if twin.Stats() != st {
			out.violations = append(out.violations,
				fmt.Sprintf("group %d: dense twin stats %+v diverge from sparse %+v",
					t.Index, twin.Stats(), st))
		}
		out.denseTwinBytes = twin.MemoryFootprint()
	}
	return out, nil
}

// RunMultigroup executes the multigroup study: groups sessions with
// Zipf-profiled memberships over one shared n-node megascale plane and one
// shared SPF cache, fanned out on the worker pool and folded in rank order.
func RunMultigroup(ctx context.Context, rc RunConfig, groups, maxMembers, n int) (*MultigroupResult, error) {
	if groups < 1 {
		return nil, fmt.Errorf("experiment: multigroup: groups = %d must be >= 1", groups)
	}
	if maxMembers < multigroupMinMembers {
		return nil, fmt.Errorf("experiment: multigroup: max group size %d below floor %d",
			maxMembers, multigroupMinMembers)
	}
	if n < 1000 {
		return nil, fmt.Errorf("experiment: multigroup: %d nodes too small (need >= 1000)", n)
	}
	if maxMembers >= n {
		return nil, fmt.Errorf("experiment: multigroup: max group size %d must be < %d nodes", maxMembers, n)
	}

	// One shared frozen topology for every group, from its own RNG stream
	// (distinct from every group stream by DeriveSeed's avalanche), and one
	// shared SPF cache under genuine cross-goroutine read pressure.
	g, _, err := topology.FlatMegascale(n, runner.DeriveSeed(rc.Seed, -1))
	if err != nil {
		return nil, err
	}

	gs, err := runner.Map(ctx, rc.pool(), groups, func(_ context.Context, t runner.Trial) (multigroupGroup, error) {
		return runMultigroupGroup(g, t, maxMembers, t.Index == 0)
	})
	if err != nil {
		return nil, err
	}

	res := &MultigroupResult{
		Groups:     groups,
		Nodes:      g.NumNodes(),
		Edges:      g.NumEdges(),
		MaxMembers: multigroupSize(0, maxMembers),
	}
	res.Rank0Bytes = gs[0].standingBytes
	res.DenseTwinBytes = gs[0].denseTwinBytes
	bytes := make([]int64, 0, len(gs))
	for _, gr := range gs {
		res.Members += gr.members
		res.JoinSettled += gr.joinSettled
		res.Events += gr.events
		res.RecoverSettled += gr.recoverSettled
		res.Parked += gr.parked
		res.BytesTotal += gr.standingBytes
		if gr.standingBytes > res.BytesMax {
			res.BytesMax = gr.standingBytes
		}
		res.Violations = append(res.Violations, gr.violations...)
		bytes = append(bytes, gr.standingBytes)
	}
	slices.Sort(bytes)
	res.BytesP50 = bytes[len(bytes)/2]
	return res, nil
}
