// Sharded event-sim throughput study: many independent sessions ("shards")
// advance concurrently on ONE shared topology with ONE shared SPF cache.
//
// Every other study in this package gives each trial a private topology, so
// parallelism never shares hot state. This study is the opposite by design:
// the shared graph and its lock-free SPF cache are exactly what the
// smrp-serve control plane runs in production, and advancing the shards on
// the worker pool puts the cache's lock-free read path under genuine
// cross-goroutine pressure. Determinism survives sharing because the shared
// state is read-only (the graph) or a pure memo whose hit/miss pattern never
// leaks into results (the cache): each shard derives its RNG stream from
// (seed, shard index) alone and results fold in shard order, so the rendered
// output is byte-identical for any worker count (see
// TestThroughputDeterministicAcrossWorkerCounts).
//
// Each shard plays a two-phase workload drawn from the dynamic-multicast
// shapes in PAPERS.md: a flash crowd (k simultaneous joiners of one group,
// admitted through core.JoinBatch) followed by a zap storm (high-rate join/
// leave churn). The nodes its candidate sweeps settle per join are reported
// as CI-stable evidence (wall-clock is noise on a single-core container;
// settled nodes are exact).
package experiment

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"smrp/internal/core"
	"smrp/internal/graph"
	"smrp/internal/runner"
	"smrp/internal/topology"
	"smrp/internal/workload"
)

// throughputFlashCrowd is the flash-crowd batch width: 16 simultaneous
// joiners of one group, the k the batched-join acceptance gate is stated for.
const throughputFlashCrowd = 16

// ThroughputResult aggregates the sharded throughput study.
type ThroughputResult struct {
	Sessions   int // shards (independent sessions on the shared topology)
	FlashCrowd int // joiners per flash-crowd batch
	Nodes      int // shared-topology size

	Joins      int // successful joins across all shards (flash + churn)
	BatchJoins int // joins admitted through the batched path
	Leaves     int // churn departures processed
	Events     int // total membership events processed

	// EnumSettled counts the nodes settled by every candidate sweep of the
	// run, flash crowd and churn alike (core.Stats.EnumSettled).
	EnumSettled int

	// Violations lists per-shard integrity failures (tree validation after
	// the full workload); empty on a healthy run.
	Violations []string
}

// SettledPerJoin is the mean candidate-sweep work of one join, in settled
// nodes — what the delay-bound prune keeps far below the topology size.
func (r *ThroughputResult) SettledPerJoin() float64 {
	if r.Joins == 0 {
		return 0
	}
	return float64(r.EnumSettled) / float64(r.Joins)
}

// Err is nil on a clean run, else an error counting the integrity violations.
func (r *ThroughputResult) Err() error { return violationsErr("throughput", "integrity", r.Violations) }

// Render prints the throughput summary. Deliberately free of wall-clock
// numbers: the rendered report is byte-stable for any worker count, and
// timing (joins/sec, events/sec) is layered on by the bench harness, which
// owns the clock.
func (r *ThroughputResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sharded session throughput (%d sessions on one shared %d-node topology)\n",
		r.Sessions, r.Nodes)
	fmt.Fprintf(&b, "  events=%d joins=%d (batched=%d) leaves=%d\n",
		r.Events, r.Joins, r.BatchJoins, r.Leaves)
	fmt.Fprintf(&b, "  candidate sweeps (flash crowds of %d per batch, then churn): settled %d nodes, %.1f per join\n",
		r.FlashCrowd, r.EnumSettled, r.SettledPerJoin())
	renderViolations(&b, "integrity", r.Violations)
	return b.String()
}

// throughputShard is one session's outcome.
type throughputShard struct {
	joins, batchJoins, leaves, events int
	enumSettled                       int
	violations                        []string
}

// RunThroughput executes the sharded throughput study with the given
// number of sessions. All sessions share one topology (drawn from seed) and
// one SPF cache; each session derives its own source, flash crowd, and churn
// schedule from (seed, shard index) and advances on the worker pool.
func RunThroughput(ctx context.Context, rc RunConfig, sessions int) (*ThroughputResult, error) {
	if sessions < 1 {
		return nil, fmt.Errorf("experiment: throughput: sessions = %d must be >= 1", sessions)
	}
	base := DefaultBase()
	base.N = 300
	// The study measures raw membership throughput; Condition-I reshaping is
	// a per-join tail that the churn study already characterizes, so it is
	// off here (and its absence keeps settled-per-join a pure admission
	// number).
	base.SMRP.ReshapeDelta = 0
	base.SMRP.PeriodicReshape = false

	// One shared topology for every shard, from its own RNG stream (distinct
	// from every shard stream by DeriveSeed's avalanche).
	topoRNG := topology.NewRNG(runner.DeriveSeed(rc.Seed, -1))
	g, err := topology.Waxman(topology.WaxmanConfig{
		N: base.N, Alpha: base.Alpha, Beta: base.Beta, EnsureConnected: true,
	}, topoRNG)
	if err != nil {
		return nil, err
	}
	g.EnableSPFCache()

	shards, err := runner.Map(ctx, rc.pool(), sessions, func(_ context.Context, t runner.Trial) (throughputShard, error) {
		rng := t.RNG
		source := graph.NodeID(rng.Intn(base.N))

		// Flash crowd: the throughputFlashCrowd nodes nearest the source, in
		// random arrival order. Flash crowds are topologically correlated —
		// a regional event pulls in a neighborhood, not a uniform sample.
		// (The churn phase below covers the dispersed shape.)
		spt := g.Dijkstra(source, nil)
		type nodeDist struct {
			n graph.NodeID
			d float64
		}
		byDist := make([]nodeDist, 0, base.N-1)
		for n := 0; n < base.N; n++ {
			id := graph.NodeID(n)
			if id != source && spt.Reachable(id) {
				byDist = append(byDist, nodeDist{n: id, d: spt.Dist[id]})
			}
		}
		slices.SortFunc(byDist, func(a, b nodeDist) int {
			if a.d != b.d {
				if a.d < b.d {
					return -1
				}
				return 1
			}
			return int(a.n - b.n)
		})
		crowd := make([]graph.NodeID, 0, throughputFlashCrowd)
		for _, nd := range byDist[:min(throughputFlashCrowd, len(byDist))] {
			crowd = append(crowd, nd.n)
		}
		for i, p := range rng.Perm(len(crowd)) {
			crowd[i], crowd[p] = crowd[p], crowd[i]
		}

		var out throughputShard

		// The measured session: the crowd arrives as one batch.
		sess, err := core.NewSession(g, source, base.SMRP)
		if err != nil {
			return out, err
		}
		_, errs := sess.JoinBatch(crowd)
		for i, err := range errs {
			if err != nil {
				return out, fmt.Errorf("throughput: batch join %d: %w", crowd[i], err)
			}
		}
		out.events += len(crowd)

		// Zap storm: high-rate churn over the rest of the population.
		inCrowd := make(map[graph.NodeID]bool, len(crowd))
		for _, m := range crowd {
			inCrowd[m] = true
		}
		var pool []graph.NodeID
		for n := 0; n < base.N; n++ {
			id := graph.NodeID(n)
			if id != source && !inCrowd[id] {
				pool = append(pool, id)
			}
		}
		sched, err := workload.Generate(workload.Config{
			Nodes:        pool,
			Horizon:      40,
			ArrivalRate:  2.0, // zap storm: arrivals far outpace lifetimes
			MeanLifetime: 4,
		}, rng)
		if err != nil {
			return out, err
		}
		for _, ev := range sched.Events {
			switch ev.Kind {
			case workload.Join:
				if _, err := sess.Join(ev.Node); err != nil {
					return out, fmt.Errorf("throughput: churn join %d: %w", ev.Node, err)
				}
			case workload.Leave:
				if err := sess.Leave(ev.Node); err != nil {
					return out, fmt.Errorf("throughput: churn leave %d: %w", ev.Node, err)
				}
			}
		}
		out.events += len(sched.Events)

		st := sess.Stats()
		out.joins = st.Joins
		out.batchJoins = st.BatchJoins
		out.leaves = st.Leaves
		out.enumSettled = st.EnumSettled
		if err := sess.Tree().Validate(); err != nil {
			out.violations = append(out.violations,
				fmt.Sprintf("shard %d (seed %d): tree invalid at horizon: %v", t.Index, t.Seed, err))
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	res := &ThroughputResult{
		Sessions:   sessions,
		FlashCrowd: throughputFlashCrowd,
		Nodes:      base.N,
	}
	for _, sh := range shards {
		res.Joins += sh.joins
		res.BatchJoins += sh.batchJoins
		res.Leaves += sh.leaves
		res.Events += sh.events
		res.EnumSettled += sh.enumSettled
		res.Violations = append(res.Violations, sh.violations...)
	}
	return res, nil
}
