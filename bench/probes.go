package main

import (
	"time"

	"smrp/internal/core"
	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/multicast"
	"smrp/internal/pqueue"
)

// prober replays layer boundaries around the operations of a traced pass:
// before or after an operation it calls the next layer's public function on
// the state the operation saw (read-only, or on a clone) and records how
// long that took and how much work it counted. It also reads the flat
// session's counters around every operation. It runs on single-lane passes
// driven through an oracle only.
type prober struct {
	o     oracle
	tr    *tracer
	hier  bool          // also replay the domain session's join under a hierarchy join
	every [numKinds]int // probe every n-th operation of a kind; 0 never
	seen  [numKinds]int // operations of a kind met so far in this pass
	ops   [numKinds]int // operations of a kind met in all traced passes
	work  map[string]float64
	raw   map[string][]float64 // probe timings of the open slice, nanoseconds as measured
	ns    map[string][]float64 // probe timings at reference speed
	cnt   map[string][]float64 // probe work counts (settled nodes, tree nodes)

	// carried from before() to after() of one operation
	sess   *core.Session
	toSub  func(graph.NodeID) graph.NodeID
	stats0 core.Stats
	clone  *multicast.Tree
}

func newProber(o oracle, tr *tracer, sched *schedule, hier bool) *prober {
	p := &prober{o: o, tr: tr, hier: hier,
		work: map[string]float64{}, raw: map[string][]float64{}, ns: map[string][]float64{}, cnt: map[string][]float64{}}
	// About a hundred probes per kind and pass: enough for a median, cheap
	// enough that a traced pass stays within a few times a plain one.
	var n [numKinds]int
	for _, seg := range sched.segments() {
		for _, lane := range seg {
			for _, o := range lane {
				n[o.kind]++
			}
		}
	}
	for _, k := range []opKind{kJoin, kRestore} {
		p.every[k] = max(1, n[k]/100)
	}
	return p
}

func (p *prober) beginPass() { p.seen = [numKinds]int{} }

// closeSlice moves the open slice's probe timings to reference speed.
func (p *prober) closeSlice(f calFactor) {
	for k, vs := range p.raw {
		for _, v := range vs {
			p.ns[k] = append(p.ns[k], v/f.at(v))
		}
		p.raw[k] = vs[:0]
	}
}

// time runs f as probe name under span parent. f returns the work it
// counted (settled nodes and the like), which goes on the probe's span and,
// under countAs, into the probe's counts; a negative count is none.
func (p *prober) time(name, countAs string, parent int32, pass int, f func() float64) {
	sp := p.tr.begin("probe."+name, parent, pass)
	t0 := time.Now()
	n := f()
	p.raw[name] = append(p.raw[name], float64(time.Since(t0).Nanoseconds()))
	if n < 0 {
		p.tr.end(sp)
		return
	}
	p.tr.endWith(sp, map[string]float64{countAs: n})
	p.cnt[countAs] = append(p.cnt[countAs], n)
}

func maskOf(s *core.Session) *graph.Mask {
	if m := s.FailedMask(); !m.IsEmpty() {
		return m
	}
	return nil
}

func (p *prober) before(o *op, parent int32, pass int) {
	n := o.node
	if o.kind == kJoinBatch {
		n = o.nodes[0]
	}
	var err error
	p.sess, p.toSub, err = p.o.session(o.sess, n)
	if err != nil || p.sess == nil {
		p.sess = nil
		return
	}
	p.stats0 = p.sess.Stats()
	p.clone = nil
	p.ops[o.kind]++
	p.seen[o.kind]++
	if p.every[o.kind] == 0 || (p.seen[o.kind]-1)%p.every[o.kind] != 0 {
		return
	}
	g, tree := p.sess.Graph(), p.sess.Tree()
	switch o.kind {
	case kJoin:
		sub, mask := p.toSub(n), maskOf(p.sess)
		if tree.OnTree(sub) {
			return
		}
		// What candidate enumeration asks of graph: one absorbing sweep
		// from the joiner over the tree as it stands.
		sw := g.NewSweep()
		p.time("graph.sweep_absorb", "graph.sweep_settled", parent, pass, func() float64 {
			sw.Run(sub, mask, tree.OnTree)
			return float64(sw.SettledCount())
		})
		sw.Release()
		p.clone = tree.Clone()
	case kRestore:
		// What recovery asks of graph: the nearest surviving on-tree node
		// from a member the cut disconnects.
		mask := p.sess.FailedMask().BlockEdge(p.toSub(o.link.a), p.toSub(o.link.b))
		surviving := failure.SurvivingNodes(tree, mask)
		cut := failure.DisconnectedMembers(tree, mask)
		if len(cut) == 0 {
			return
		}
		p.time("graph.nearest", "graph.nearest_settled", parent, pass, func() float64 {
			_, _, _, settled := g.NearestOfCounted(cut[0], mask, func(n graph.NodeID) bool { return surviving[n] })
			return float64(settled)
		})
	}
}

func (p *prober) after(o *op, parent int32, pass int) {
	if p.sess == nil {
		return
	}
	st := p.sess.Stats()
	p.work["shr_updates"] += float64(st.SHRUpdates - p.stats0.SHRUpdates)
	p.work["reshapes"] += float64(st.Reshapes - p.stats0.Reshapes)
	switch o.kind {
	case kJoin, kJoinBatch:
		p.work["candidates"] += float64(st.CandidatesSeen - p.stats0.CandidatesSeen)
		p.work["enum_settled"] += float64(st.EnumSettled - p.stats0.EnumSettled)
		p.work["joined"] += float64(st.Joins - p.stats0.Joins)
	case kRestore:
		p.work["heal_settled"] += float64(st.HealSettled - p.stats0.HealSettled)
	}
	if p.clone == nil {
		return
	}
	// What the join asked of multicast: graft the chosen path. The path is
	// read back off the tree: from the member up to the first node the
	// tree already had.
	sub := p.toSub(o.node)
	up, err := p.sess.Tree().PathToSource(sub)
	if err != nil {
		return
	}
	i := 0
	for i < len(up) && !p.clone.OnTree(up[i]) {
		i++
	}
	if i == len(up) {
		return
	}
	conn := graph.Path(up[:i+1]).Reverse()
	p.time("multicast.graft_leave", "multicast.tree_nodes", parent, pass, func() float64 {
		if p.clone.Graft(conn, true) == nil {
			_ = p.clone.Leave(sub) // a clone, thrown away either way
		}
		return float64(p.clone.NumNodes())
	})
	if p.hier {
		// The hierarchy's join is attribution plus this: the same join on
		// the domain's flat session. With reshaping off, leaving and
		// joining again rebuilds the same branch.
		if p.sess.Leave(sub) == nil {
			p.time("hierarchy.domain_join", "", parent, pass, func() float64 {
				if _, err := p.sess.Join(sub); err != nil {
					p.work["replay_errors"]++
				}
				return -1
			})
		}
	}
}

// ---- probes that need no operation: run once per traced run ----

type heapItem struct{ k uint64 }

func (a heapItem) Before(b heapItem) bool { return a.k < b.k }

// pqueuePushPopNS is one Push plus one Pop on a heap holding 4096 items.
func pqueuePushPopNS() float64 {
	var h pqueue.Heap[heapItem]
	x := uint64(88172645463325252)
	next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	for i := 0; i < 4096; i++ {
		h.Push(heapItem{next()})
	}
	const rounds = 200_000
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		h.Push(heapItem{next()})
		h.Pop()
	}
	return float64(time.Since(t0).Nanoseconds()) / rounds
}

// sink keeps the results of probe loops alive, so that the compiler cannot
// drop the calls that produce them.
var sink uint64

// maskFoldNS is what folding one link failure into a mask and out again
// costs, fingerprint included.
func maskFoldNS(g *graph.Graph) float64 {
	edges := g.Edges()
	if len(edges) > 64 {
		edges = edges[:64]
	}
	m := graph.NewMaskWithCapacity(g.NumNodes())
	const rounds = 20_000
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		e := edges[i%len(edges)]
		m.BlockEdge(e.A, e.B)
		sink += m.Fingerprint()
		m.UnblockEdge(e.A, e.B)
	}
	return float64(time.Since(t0).Nanoseconds()) / rounds
}

// spfProbe times the three ways an SPF cache answers, on a private cache
// over g so the program's own cache is left alone: a resident key (hit), a
// key with no lineage (miss: full run), and a key one mask element away from
// the resident lineage head (miss: delta repair). Nanoseconds each.
func spfProbe(g *graph.Graph, sources []graph.NodeID) (hit, miss, delta float64) {
	var hits, misses, deltas []float64
	edges := g.Edges()
	for i, src := range sources {
		c := graph.NewSPFCache(g, 0)
		t0 := time.Now()
		c.Dijkstra(src, nil)
		misses = append(misses, float64(time.Since(t0).Nanoseconds()))

		const rounds = 2000
		t0 = time.Now()
		for r := 0; r < rounds; r++ {
			c.Dijkstra(src, nil)
		}
		hits = append(hits, float64(time.Since(t0).Nanoseconds())/rounds)

		e := edges[(i*7919)%len(edges)]
		mask := graph.NewMask().BlockEdge(e.A, e.B)
		t0 = time.Now()
		c.Dijkstra(src, mask)
		deltas = append(deltas, float64(time.Since(t0).Nanoseconds()))
	}
	return median(hits), median(misses), median(deltas)
}

// freezeSeconds rebuilds g edge by edge through the public mutators and
// times Freeze on the copy.
func freezeSeconds(g *graph.Graph) (float64, error) {
	twin := graph.New(g.NumNodes())
	for n := 0; n < g.NumNodes(); n++ {
		twin.SetPos(graph.NodeID(n), g.Pos(graph.NodeID(n)))
	}
	for _, e := range g.Edges() {
		w, _ := g.EdgeWeight(e.A, e.B)
		if err := twin.AddEdge(e.A, e.B, w); err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	twin.Freeze()
	return time.Since(t0).Seconds(), nil
}
