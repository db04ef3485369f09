package core

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"smrp/internal/failure"
	"smrp/internal/graph"
)

// selectCase is what FuzzSelectPath decodes its bytes into: a small graph with
// weights in 1…8 (integer, so that delays tie exactly) or, on the top flag
// bit, tenths of that (so that they tie but for the order they are summed in,
// and the candidate sweep's potential is consistent to a rounding only), a
// session configuration, the joins that grow the tree, failures to fold in
// afterwards (flushed by a Reconcile or left on the tree), and the joiner
// whose selection is the case's subject.
type selectCase struct {
	g      *graph.Graph
	src    graph.NodeID
	cfg    Config
	grow   []graph.NodeID
	fails  []failure.Failure
	flush  bool
	joiner graph.NodeID
}

func decodeSelectCase(data []byte) selectCase {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 3 + next()%14
	node := func() graph.NodeID { return graph.NodeID(next() % n) }
	in := selectCase{src: node(), cfg: DefaultConfig()}
	flags := next()
	in.cfg.DThresh = []float64{0, 0.3, 8}[flags&3%3]
	in.flush = flags&16 != 0
	if flags&32 != 0 {
		in.cfg.TreeStorage = StorageSparse
	}
	if flags&64 != 0 {
		in.cfg.Knowledge = QueryScheme
	}
	unit := 1.0
	if flags&128 != 0 {
		unit = 0.1
	}
	// Condition I is off so that every reshape is one the oracle drives.
	in.cfg.ReshapeDelta = 0
	for i, k := 0, next()%6; i < k; i++ {
		in.grow = append(in.grow, node())
	}
	in.joiner = node()
	blocks := next()
	var downNodes []graph.NodeID
	var downLinks []int
	for i := 0; i < blocks&3; i++ {
		downNodes = append(downNodes, node())
	}
	for i := 0; i < blocks>>2&3; i++ {
		downLinks = append(downLinks, next())
	}

	b, linked := graph.New(n), map[graph.EdgeID]bool{}
	for len(data) >= 3 {
		u, v, w := node(), node(), unit*float64(1+next()%8)
		if e := graph.MakeEdgeID(u, v); u != v && !linked[e] {
			linked[e] = true // a repeated edge keeps its first weight
			_ = b.AddEdge(u, v, w)
		}
	}
	g, err := b.Freeze()
	if err != nil {
		panic(err) // each edge is recorded once
	}
	in.g = g
	for _, v := range downNodes {
		if v != in.src {
			in.fails = append(in.fails, failure.NodeDown(v))
		}
	}
	if es := in.g.Edges(); len(es) > 0 {
		for _, i := range downLinks {
			in.fails = append(in.fails, failure.LinkDown(es[i%len(es)].A, es[i%len(es)].B))
		}
	}
	return in
}

// runSelectCase plays one decoded case under the prune oracle: every join that
// grows the tree, the subject's join and a reshape of every member afterwards
// are held to the exhaustive reference, selection by selection, and the
// session's selection counters to the reference's accounting.
func runSelectCase(t *testing.T, in selectCase) *pruneOracle {
	s, err := NewSession(in.g, in.src, in.cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := &pruneOracle{t: t, s: s}
	for _, nr := range in.grow {
		o.join(nr)
	}
	if len(in.fails) > 0 {
		s.ApplyFailure(in.fails...)
		if in.flush {
			if _, err := s.Reconcile(); err != nil {
				t.Fatalf("reconcile: %v", err)
			}
		}
	}
	o.join(in.joiner)
	for _, m := range s.tree.Members() {
		o.reshape(m)
	}
	o.checkCounters("case")
	return o
}

// FuzzSelectPath holds the selection engine to the reference it replaced
// (selection_reference_test.go) on byte-decoded sessions: for the join of a
// node and for the reshape of every member under its subtree mask, healthy,
// on a folded-but-unflushed failure and on a flushed one, at D_thresh ∈
// {0, 0.3, 8}, on dense and sparse trees, Session.selectPath picks the
// reference's candidate, bit for bit — within the bound and, when nothing is,
// with the bound lifted — the session lands where the reference does, and
// Stats.EnumSettled, CandidatesSeen, SelectRescans and SelectSourceExits read
// what the reference's sweeps cost: a bounded pass either stops at the source,
// which then is the reference's winner, or is the sweep of its whole region. A
// reshape reads the tree through a view, which is held to the hypothetical
// tree built by Clone, DetachSubtree and PruneFrom, under the query scheme
// too.
func FuzzSelectPath(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		runSelectCase(t, decodeSelectCase(data))
	})
}

// TestSelectPathSeedsCoverTheirCase reads the named entries of
// FuzzSelectPath's checked-in corpus and checks that each still is the case
// its name says — a change to the decoder must not quietly turn them into
// something else.
func TestSelectPathSeedsCoverTheirCase(t *testing.T) {
	seed := func(name string) (selectCase, *pruneOracle) {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzSelectPath", name))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a fuzz corpus entry", name)
		}
		quoted := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
		data, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		in := decodeSelectCase([]byte(data))
		return in, runSelectCase(t, in)
	}

	if in, o := seed("nothing-in-bound-at-dthresh-0"); in.cfg.DThresh != 0 || o.s.Stats().SelectRescans != 1 {
		t.Errorf("nothing-in-bound-at-dthresh-0: D_thresh %v, %d joins swept twice; want 0 and 1", in.cfg.DThresh, o.s.Stats().SelectRescans)
	}
	if _, o := seed("two-mergers-tied-on-total-delay"); o.ties == 0 {
		t.Error("two-mergers-tied-on-total-delay: no selection had a tie to break")
	}
	// Without the second failed link the joiner has a merger within the
	// bound; with it, that merger cannot be reached and the join sweeps twice.
	in, o := seed("in-bound-merger-behind-masked-edge")
	if len(in.fails) != 2 || o.s.Stats().SelectRescans != 1 {
		t.Fatalf("in-bound-merger-behind-masked-edge: %d failures, %d joins swept twice; want 2 and 1", len(in.fails), o.s.Stats().SelectRescans)
	}
	in.fails = in.fails[:1]
	if o := runSelectCase(t, in); o.s.Stats().SelectRescans != 0 {
		t.Error("in-bound-merger-behind-masked-edge: the join sweeps twice with the edge up, too")
	}
	// The joiner's one low-SHR merger hangs below a link that is down but not
	// flushed: unmasked distances keep it inside the pruned region.
	in, o = seed("merger-over-unflushed-dead-edge")
	if p, _ := o.s.tree.Parent(in.joiner); in.flush || len(in.fails) != 1 || o.s.Stats().SelectRescans != 0 || p != 1 {
		t.Errorf("merger-over-unflushed-dead-edge: flush=%v, %d failures, %d joins swept twice, joiner below %d; want it below 1 in one pass",
			in.flush, len(in.fails), o.s.Stats().SelectRescans, p)
	}
	// S→1→2→3→4 with member 5 below 1: the reshape of 4 reads relays 3 and 2
	// as pruned and stops at 1 for its second child, and nobody moves.
	if _, o := seed("relay-chain-pruned-above-member"); o.chains != 1 || o.memberStops != 0 || o.refused != 0 || o.moves != 0 {
		t.Errorf("relay-chain-pruned-above-member: %d checks pruned a chain (%d stopped by a member), %d refused, %d moves; want 1, 0, 0, 0",
			o.chains, o.memberStops, o.refused, o.moves)
	}
	// S→1→2→3, members 1 and 3, link S–1 down and not flushed: with relay 2
	// read as pruned (member 1 stops the chain) the source is within 3's
	// loosened bound through 2, wins on SHR, and Reroute refuses the path.
	if in, o := seed("winner-crosses-pruned-relay"); in.flush || len(in.fails) != 1 || o.refused != 1 || o.memberStops != 1 || o.moves != 0 {
		t.Errorf("winner-crosses-pruned-relay: flush=%v, %d failures, %d winners refused, %d chains stopped by a member, %d moves; want 1 unflushed failure, 1, 1, 0",
			in.flush, len(in.fails), o.refused, o.memberStops, o.moves)
	}

	// The sweep's run toward the source. S–1–2 with links of 1 and S–2 of 3,
	// member 1, D_thresh 8: merger 1 gives joiner 2 a delay of 2, the source
	// one of 3 and wins on SHR; the sweep stops there, as it does for both
	// members' reshape checks, through their views.
	in, o = seed("source-wins-on-shr-over-a-faster-merger")
	if d, _ := o.s.tree.DelayTo(in.joiner); o.s.Stats().SelectSourceExits != 4 || o.goal.whole != 4 || o.goal.view != 2 || d != 3 {
		t.Errorf("source-wins-on-shr-over-a-faster-merger: %d selections stopped at the source, the oracle's %d, %d through a view, joiner at delay %v; want 4, 4, 2, 3",
			o.s.Stats().SelectSourceExits, o.goal.whole, o.goal.view, d)
	}
	// S–2 of 2 instead, D_thresh 0.3: merger 1 is keyed where the source is
	// and settles after it, while its level drains.
	if _, o := seed("source-tied-with-a-merger-drains-its-level"); o.goal.whole != 4 || o.goal.drained != 2 {
		t.Errorf("source-tied-with-a-merger-drains-its-level: %d selections stopped at the source, %d with more at its level; want 4, 2", o.goal.whole, o.goal.drained)
	}
	// And with a third way S–3–2 whose node 3 is down, not flushed: joiner
	// 2's selection runs under the failure mask (the reshape checks' two
	// run under a subtree mask anyway).
	if in, o := seed("source-decides-under-a-failed-node"); in.flush || len(in.fails) != 1 || o.goal.whole != 4 || o.goal.masked != 3 {
		t.Errorf("source-decides-under-a-failed-node: flush=%v, %d failures, %d selections stopped at the source, %d of them under a mask; want 1 unflushed failure, 4, 3",
			in.flush, len(in.fails), o.goal.whole, o.goal.masked)
	}
	// S–1 of 1, 1–5 of 2, S–5 of 3: joining 5, the source settles off 5 itself,
	// keyed 3 like node 1, which settles after it and is its smaller parent at
	// the same distance. A sweep that stops at the source's first pop connects
	// 5 directly.
	in, o = seed("source-reparented-while-its-level-drains")
	if p, _ := o.s.tree.Parent(in.grow[0]); o.goal.reparented != 2 || p != 1 {
		t.Errorf("source-reparented-while-its-level-drains: %d settled nodes re-parented, member %d below %d; want 2 and 1", o.goal.reparented, in.grow[0], p)
	}
	// S–1–{2, 3–2}–4 with links of 0.1 to 0.3: the ways from 4 to the source
	// tie but for the order their weights are summed in, and a node settles off
	// one before the sweep comes by the other.
	in, o = seed("settled-node-lowered-by-a-rounding")
	if w, _ := in.g.EdgeWeight(0, 1); o.goal.requeued == 0 || w != 0.1*2 {
		t.Errorf("settled-node-lowered-by-a-rounding: %d nodes queued again after settling, link S–1 weighs %v; want some, and 0.1·2", o.goal.requeued, w)
	}
}
