package main

import (
	"fmt"
	"math/rand"
	"time"

	"smrp/internal/core"
	"smrp/internal/graph"
	"smrp/internal/hierarchy"
	"smrp/internal/topology"
)

// sizes fixes how large each workload is. "full" is what BENCHMARK.json
// measures; "smoke" is the same shape shrunk for the test suite.
type sizes struct {
	paperTopos, paperNodes, paperMembers, paperCuts int

	megaNodes, megaGroups, megaMax, megaPerRank, megaFloor, megaRounds int

	hierNodes, hierMembers int

	serveNodes, serveSessions, serveMembers, serveCuts, serveClients int

	// every n-th restore is followed by a leave+join while the cut stands
	paperChurnEvery, megaChurnEvery int
}

var scales = map[string]sizes{
	"full": {
		paperTopos: 24, paperNodes: 100, paperMembers: 30, paperCuts: 30,
		megaNodes: 8192, megaGroups: 48, megaMax: 24, megaPerRank: 3, megaFloor: 4, megaRounds: 2,
		hierNodes: 30000, hierMembers: 1200,
		serveNodes: 200, serveSessions: 48, serveMembers: 30, serveCuts: 10, serveClients: 2,
		paperChurnEvery: 4, megaChurnEvery: 10,
	},
	"smoke": {
		paperTopos: 3, paperNodes: 60, paperMembers: 12, paperCuts: 6,
		megaNodes: 1500, megaGroups: 6, megaMax: 12, megaPerRank: 2, megaFloor: 3, megaRounds: 1,
		hierNodes: 1000, hierMembers: 30,
		serveNodes: 60, serveSessions: 4, serveMembers: 10, serveCuts: 2, serveClients: 2,
		paperChurnEvery: 2, megaChurnEvery: 4,
	},
}

// Topologies and the sources of the sessions on them are part of the
// workload's definition, not of its input: the seed given on the command line
// drives the schedule generators only — who joins, in what order, who leaves,
// who churns — so every seed measures the same networks and the same origins
// under different traffic. (Where a session's source sits decides how much of
// the group one cut takes down; drawn per seed, a dozen sources made the
// restore metrics of two seeds differ by half.)
const topologySeed = 2005

// fixedSources is the generator sources are drawn from: the same for every
// seed.
func fixedSources() *rand.Rand { return rand.New(rand.NewSource(topologySeed)) }

// env is one built environment: the networks, whatever long-lived program
// state the workload needs, and the drivers that reach it.
type env struct {
	graphs  []*graph.Graph
	cfg     core.Config
	primary driver // what the timed passes drive
	oracle  oracle // direct access, for resolving and checking
	arms    []arm  // traced run only: the same schedule through lower layers
	hier    *hierDriver
	serve   *serveEnv
	http    *httpDriver
	timing  map[string]float64 // seconds spent in named parts of the build
	closeFn func() error
}

type arm struct {
	name string
	d    driver
}

func (e *env) close() error {
	if e.closeFn != nil {
		return e.closeFn()
	}
	return nil
}

// flushCaches empties every SPF cache the environment holds, so that each
// pass meets the same cold cache at the same operations.
func (e *env) flushCaches() {
	for _, g := range e.graphs {
		if c := g.SPFCacheOf(); c != nil {
			c.Flush()
		}
	}
}

type workload struct {
	name  string
	why   string
	build func(sz sizes) (*env, error)
	gen   func(sz sizes, e *env, rng *rand.Rand) *schedule
}

var workloads = []workload{
	{
		name:  "paper_restore",
		why:   "the paper's regime: N=100 Waxman, 30 members, worst-case cuts; core and multicast do the work, sweeps are tiny",
		build: buildPaper, gen: genPaper,
	},
	{
		name:  "mega_admit",
		why:   "many Zipf-sized sparse groups on one large flat topology: whole-graph sweeps in graph are nearly all of the time",
		build: buildMega, gen: genMega,
	},
	{
		name:  "hier_restore",
		why:   "N-level hierarchy: attribution and per-domain sessions do the work, sweeps stay inside a 100-node domain",
		build: buildHier, gen: genHier,
	},
	{
		name:  "serve_mixed",
		why:   "joins, small restores and reads over loopback HTTP, two clients: JSON, the actor mailbox and net/http sit on top of core",
		build: buildServe, gen: genServe,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func timed(timing map[string]float64, key string, f func() error) error {
	t0 := time.Now()
	err := f()
	timing[key] += time.Since(t0).Seconds()
	return err
}

// pick draws k distinct nodes of [0,n) other than skip.
func pick(rng *rand.Rand, n, k int, skip graph.NodeID) []graph.NodeID {
	seen := map[graph.NodeID]bool{skip: true}
	outv := make([]graph.NodeID, 0, k)
	for len(outv) < k {
		m := graph.NodeID(rng.Intn(n))
		if !seen[m] {
			seen[m] = true
			outv = append(outv, m)
		}
	}
	return outv
}

func shuffled(rng *rand.Rand, ns []graph.NodeID) []graph.NodeID {
	c := append([]graph.NodeID(nil), ns...)
	rng.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
	return c
}

// cutOps is the restore/repair pair for member m, with a leave+join of some
// other member in between when churn is set.
func cutOps(sess int, m graph.NodeID, churn bool, cands []graph.NodeID) []*op {
	ops := []*op{{kind: kRestore, sess: sess, node: m}}
	if churn {
		ops = append(ops,
			&op{kind: kLeave, sess: sess, churn: true, nodes: cands},
			&op{kind: kJoin, sess: sess, churn: true})
	}
	return append(ops, &op{kind: kRepair, sess: sess})
}

// ---- paper_restore ----

func buildPaper(sz sizes) (*env, error) {
	e := &env{cfg: core.DefaultConfig(), timing: map[string]float64{}}
	for t := 0; t < sz.paperTopos; t++ {
		err := timed(e.timing, "topology.generate_s", func() error {
			g, err := topology.Waxman(topology.WaxmanConfig{
				N: sz.paperNodes, Alpha: 0.2, Beta: topology.DefaultBeta, EnsureConnected: true,
			}, topology.NewRNG(topologySeed+uint64(t)))
			if err != nil {
				return err
			}
			g.EnableSPFCache()
			e.graphs = append(e.graphs, g)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	d := newCoreDriver(e.cfg, sz.paperTopos, func(s int) *graph.Graph { return e.graphs[s] })
	e.primary, e.oracle = d, d
	return e, nil
}

// genPaper: per topology one session; join all, cut the worst-case link of
// the first paperCuts members in turn (recover, repair), then half leave and
// rejoin. Many sessions with few cuts each, rather than few with many: the
// cost of a restore is set by the branch it cuts, and a session has only a
// handful of branches.
func genPaper(sz sizes, e *env, rng *rand.Rand) *schedule {
	s := &schedule{}
	var restores, churns []segment
	srcs := fixedSources()
	for t := 0; t < sz.paperTopos; t++ {
		src := graph.NodeID(srcs.Intn(sz.paperNodes))
		ms := pick(rng, sz.paperNodes, sz.paperMembers, src)
		s.sources = append(s.sources, src)
		s.admitted = append(s.admitted, ms)
		s.final = append(s.final, ms)
		var admit, rest, churn []*op
		for _, m := range ms {
			admit = append(admit, &op{kind: kJoin, sess: t, node: m})
		}
		for i, m := range ms[:sz.paperCuts] {
			rest = append(rest, cutOps(t, m, i%sz.paperChurnEvery == sz.paperChurnEvery-1, shuffled(rng, ms))...)
		}
		movers := shuffled(rng, ms)[:len(ms)/2]
		for _, m := range movers {
			churn = append(churn, &op{kind: kLeave, sess: t, node: m})
		}
		for _, m := range movers {
			churn = append(churn, &op{kind: kJoin, sess: t, node: m})
		}
		s.admit = append(s.admit, segment{admit})
		restores = append(restores, segment{rest})
		churns = append(churns, segment{churn})
	}
	s.rest = append(restores, churns...)
	s.number()
	return s
}

// ---- mega_admit ----

func megaConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.ReshapeDelta = 0
	cfg.PeriodicReshape = false
	cfg.TreeStorage = core.StorageSparse
	return cfg
}

func buildMega(sz sizes) (*env, error) {
	e := &env{cfg: megaConfig(), timing: map[string]float64{}}
	err := timed(e.timing, "topology.generate_s", func() error {
		g, _, err := topology.FlatMegascale(sz.megaNodes, topologySeed)
		if err != nil {
			return err
		}
		g.EnableSPFCache()
		e.graphs = []*graph.Graph{g}
		return nil
	})
	if err != nil {
		return nil, err
	}
	d := newCoreDriver(e.cfg, sz.megaGroups, func(int) *graph.Graph { return e.graphs[0] })
	d.leafCuts = true
	e.primary, e.oracle = d, d
	return e, nil
}

// genMega: group sizes follow the harmonic Zipf profile max/(rank+1) with a
// floor, megaPerRank groups to a rank so that the expensive head of the
// profile is more than one group. Half of each group arrives as one
// JoinBatch, half one Join at a time; then every member's own uplink is cut
// in turn, megaRounds times over. A restore here costs a hundredth of a join,
// so cutting everybody buys a steady restore_p95_us for nothing.
func genMega(sz sizes, e *env, rng *rand.Rand) *schedule {
	s := &schedule{}
	srcs := fixedSources()
	cuts := 0
	for gi := 0; gi < sz.megaGroups; gi++ {
		size := sz.megaMax / (gi/sz.megaPerRank + 1)
		if size < sz.megaFloor {
			size = sz.megaFloor
		}
		src := graph.NodeID(srcs.Intn(sz.megaNodes))
		ms := pick(rng, sz.megaNodes, size, src)
		s.sources = append(s.sources, src)
		s.admitted = append(s.admitted, ms)
		s.final = append(s.final, ms)
		half := size / 2
		admit := []*op{{kind: kJoinBatch, sess: gi, nodes: ms[:half]}}
		for _, m := range ms[half:] {
			admit = append(admit, &op{kind: kJoin, sess: gi, node: m})
		}
		var rest []*op
		for round := 0; round < sz.megaRounds; round++ {
			for _, m := range shuffled(rng, ms) {
				cuts++
				rest = append(rest, cutOps(gi, m, cuts%sz.megaChurnEvery == 0, shuffled(rng, ms))...)
			}
		}
		s.admit = append(s.admit, segment{admit})
		s.rest = append(s.rest, segment{rest})
	}
	s.number()
	return s
}

// ---- hier_restore ----

func buildHier(sz sizes) (*env, error) {
	e := &env{cfg: megaConfig(), timing: map[string]float64{}}
	e.cfg.TreeStorage = core.StorageAuto // domains are small: dense trees, as the megascale study runs them
	var topo *topology.NLevelTopology
	err := timed(e.timing, "topology.generate_s", func() (err error) {
		topo, err = topology.GenerateMegascale(topology.MegascaleConfig{TargetNodes: sz.hierNodes}, topologySeed)
		return err
	})
	if err != nil {
		return nil, err
	}
	leaves := topo.Leaves()
	if len(leaves) < 2 {
		return nil, fmt.Errorf("hierarchy of %d nodes has %d leaf domains", sz.hierNodes, len(leaves))
	}
	// The source is the first non-gateway node of the first leaf domain.
	d0 := &topo.Domains[leaves[0]]
	src := d0.Nodes[0]
	if src == d0.Gateway {
		src = d0.Nodes[1]
	}
	var hs *hierarchy.NLevelSession
	err = timed(e.timing, "hierarchy.new_s", func() (err error) {
		hs, err = hierarchy.NewNLevel(topo, src, e.cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	e.graphs = []*graph.Graph{topo.Graph}
	e.hier = &hierDriver{topo: topo, hs: hs, source: src, ref: newReference()}
	e.primary, e.oracle = e.hier, e.hier
	return e, nil
}

// genHier: members spread evenly over the leaf domains other than the
// source's; join all, cut each member's domain-local branch in turn
// (recover through the hierarchy, repair in the domain), leave all.
func genHier(sz sizes, e *env, rng *rand.Rand) *schedule {
	topo := e.hier.topo
	rest := topo.Leaves()[1:]
	s := &schedule{sources: []graph.NodeID{e.hier.source}, final: [][]graph.NodeID{nil}}
	seen := map[graph.NodeID]bool{}
	var ms []graph.NodeID
	for i := 0; i < sz.hierMembers; i++ {
		d := &topo.Domains[rest[(i*len(rest))/sz.hierMembers]]
		for {
			m := d.Nodes[rng.Intn(len(d.Nodes))]
			if m != d.Gateway && !seen[m] {
				seen[m] = true
				ms = append(ms, m)
				break
			}
		}
	}
	ms = shuffled(rng, ms)
	chunk := func(ops []*op, n int) []segment {
		var segs []segment
		for len(ops) > 0 {
			k := min(n, len(ops))
			segs = append(segs, segment{ops[:k]})
			ops = ops[k:]
		}
		return segs
	}
	var admit, cuts, leaves []*op
	for _, m := range ms {
		admit = append(admit, &op{kind: kJoin, node: m})
		cuts = append(cuts, cutOps(0, m, false, nil)...)
		leaves = append(leaves, &op{kind: kLeave, node: m})
	}
	s.admit = chunk(admit, 100)
	s.rest = append(chunk(cuts, 100), chunk(leaves, 200)...)
	s.admitted = [][]graph.NodeID{ms}
	s.number()
	return s
}

// ---- serve_mixed ----

func buildServe(sz sizes) (*env, error) {
	e := &env{cfg: core.DefaultConfig(), timing: map[string]float64{}}
	err := timed(e.timing, "topology.generate_s", func() error {
		g, err := topology.Waxman(topology.WaxmanConfig{
			N: sz.serveNodes, Alpha: 0.2, Beta: topology.DefaultBeta, EnsureConnected: true,
		}, topology.NewRNG(topologySeed))
		e.graphs = []*graph.Graph{g}
		return err
	})
	if err != nil {
		return nil, err
	}
	e.serve, err = startServe(e.graphs[0])
	if err != nil {
		return nil, err
	}
	e.http = newHTTPDriver(e.serve, sz.serveSessions, sz.serveClients)
	e.closeFn = func() error {
		e.http.hangUp()
		return e.serve.close()
	}
	e.primary = e.http
	// The bare-session arm runs on the registry's graph and so shares its
	// SPF cache, as every hosted session does.
	bare := newCoreDriver(e.cfg, sz.serveSessions, func(int) *graph.Graph { return e.graphs[0] })
	bare.leafCuts = true
	e.oracle = bare
	e.arms = []arm{{"actor", newActorDriver(e.serve, sz.serveSessions)}, {"core", bare}}
	return e, nil
}

// genServe: one lane per client, each client working through its own
// sessions one request at a time: joins with a read after every fourth,
// then fail+repair pairs on the uplinks of the first serveCuts members, then
// everybody leaves. (Worst-case cuts, as in paper_restore, cost anything
// from 60 µs to 10 ms here, with the median on the steepest part of that
// range: two seeds read 20 % apart. paper_restore keeps that regime.)
func genServe(sz sizes, e *env, rng *rand.Rand) *schedule {
	s := &schedule{}
	lanes := sz.serveClients
	srcs := fixedSources()
	for base := 0; base < sz.serveSessions; base += lanes {
		admit := make(segment, lanes)
		rest := make(segment, lanes)
		for l := 0; l < lanes && base+l < sz.serveSessions; l++ {
			sess := base + l
			src := graph.NodeID(srcs.Intn(sz.serveNodes))
			ms := pick(rng, sz.serveNodes, sz.serveMembers, src)
			s.sources = append(s.sources, src)
			s.admitted = append(s.admitted, ms)
			s.final = append(s.final, nil)
			for i, m := range ms {
				admit[l] = append(admit[l], &op{kind: kJoin, sess: sess, node: m})
				if i%4 == 3 {
					admit[l] = append(admit[l], &op{kind: kGet, sess: sess})
				}
			}
			for c := 0; c < sz.serveCuts; c++ {
				rest[l] = append(rest[l], cutOps(sess, ms[c%len(ms)], false, nil)...)
			}
			for _, m := range shuffled(rng, ms) {
				rest[l] = append(rest[l], &op{kind: kLeave, sess: sess, node: m})
			}
		}
		s.admit = append(s.admit, admit)
		s.rest = append(s.rest, rest)
	}
	s.number()
	return s
}
