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
// weights in 1…8 (integer, so that delays tie exactly), a session
// configuration, the joins that grow the tree, failures to fold in afterwards
// (flushed by a Reconcile or left on the tree), and the joiner whose selection
// is the case's subject.
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
	if flags&8 != 0 {
		in.cfg.SHRMode = DeferredSHR
	}
	in.flush = flags&16 != 0
	if flags&32 != 0 {
		in.cfg.TreeStorage = StorageSparse
	}
	if flags&64 != 0 {
		in.cfg.Knowledge = QueryScheme
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

	in.g = graph.New(n)
	for len(data) >= 3 {
		u, v, w := node(), node(), float64(1+next()%8)
		if u != v {
			_ = in.g.AddEdge(u, v, w) // a repeated edge keeps its first weight
		}
	}
	if flags&4 != 0 {
		in.g.EnableSPFCache()
	}
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
// Stats.EnumSettled, CandidatesSeen and SelectRescans read what the
// reference's sweeps cost. A reshape reads the tree through a view, which is
// held to the hypothetical tree built by Clone and RemoveSubtree, under the
// query scheme too.
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
}
