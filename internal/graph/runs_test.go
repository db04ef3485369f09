package graph

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// testRun is a run's edges with their weights held in a slice.
type testRun struct {
	ends [][2]int32
	w    []float64
}

// runsOf wraps the test runs as AddRuns takes them.
func runsOf(trs []testRun) []Run {
	runs := make([]Run, len(trs))
	for r, tr := range trs {
		runs[r] = Run{Ends: tr.ends, Weight: func(i int) float64 { return tr.w[i] }}
	}
	return runs
}

// cloneRuns copies the runs deep enough to edit one without the other.
func cloneRuns(trs []testRun) []testRun {
	out := make([]testRun, len(trs))
	for r, tr := range trs {
		out[r] = testRun{slices.Clone(tr.ends), slices.Clone(tr.w)}
	}
	return out
}

// randomRuns draws distinct edges on n nodes as 24 runs over overlapping
// windows of 150 nodes, so the rows where two windows meet are shared by two
// runs, and one last run of edges across the whole graph, like a hierarchy's
// uplinks. Weights come from a small set, so rows hold ties. The runs hold
// more than 2·insertArcsPerWorker arcs: at GOMAXPROCS ≥ 2 they fill on
// several goroutines.
func randomRuns(rng *rand.Rand) (n int, runs []testRun) {
	const windows, width, step = 24, 150, 120
	n = (windows-1)*step + width
	seen := make(map[EdgeID]bool)
	draw := func(lo, span, count int) testRun {
		var tr testRun
		for len(tr.ends) < count {
			u, v := lo+rng.Intn(span), lo+rng.Intn(span)
			e := MakeEdgeID(NodeID(u), NodeID(v))
			if u == v || seen[e] {
				continue
			}
			seen[e] = true
			tr.ends = append(tr.ends, [2]int32{int32(u), int32(v)})
			tr.w = append(tr.w, float64(1+rng.Intn(40))/7)
		}
		return tr
	}
	for r := 0; r < windows; r++ {
		runs = append(runs, draw(r*step, width, 1500))
	}
	runs = append(runs, draw(0, n, 200))
	return n, runs
}

// addOneByOne inserts the runs' edges with AddEdge, in run order.
func addOneByOne(t *testing.T, b *Builder, trs []testRun) {
	t.Helper()
	for _, tr := range trs {
		for i, e := range tr.ends {
			if err := b.AddEdge(NodeID(e[0]), NodeID(e[1]), tr.w[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// sameBlock fails the test unless the two frozen graphs hold the same rows.
func sameBlock(t *testing.T, what string, got, want *Graph) {
	t.Helper()
	if got.NumEdges() != want.NumEdges() || !slices.Equal(got.lo, want.lo) ||
		!slices.Equal(got.to, want.to) || !slices.Equal(got.w, want.w) {
		t.Fatalf("%s: the rows differ from AddEdge's (%d edges, want %d)", what, got.NumEdges(), want.NumEdges())
	}
}

// TestAddRunsMatchesAddEdge: random runs, some rows shared across them,
// freeze to the very rows the same edges recorded one by one with AddEdge
// freeze to, on one goroutine and on four, and so do runs recorded after
// edges AddEdge recorded.
func TestAddRunsMatchesAddEdge(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	trials := 4
	if testing.Short() {
		trials = 1
	}
	for trial := 0; trial < trials; trial++ {
		n, trs := randomRuns(rand.New(rand.NewSource(int64(4300 + trial))))
		ref := New(n)
		addOneByOne(t, ref, trs)
		want := mustFreeze(ref)
		if arcs := 2 * want.NumEdges(); arcs < 2*insertArcsPerWorker {
			t.Fatalf("%d arcs fill on one goroutine; the parallel fill goes untested", arcs)
		}
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			what := fmt.Sprintf("trial %d at GOMAXPROCS %d", trial, procs)
			b := New(n)
			b.AddRuns(runsOf(trs))
			sameBlock(t, what, mustFreeze(b), want)

			mixed := New(n)
			addOneByOne(t, mixed, trs[:3])
			mixed.AddRuns(runsOf(trs[3:]))
			sameBlock(t, what+", after AddEdge", mustFreeze(mixed), want)
		}
	}
}

// TestAddRunsRefusals: Freeze refuses every edge AddEdge refuses, and every
// duplicate, each planted among runs large enough to fill on several
// goroutines, with an error naming it, the same at any GOMAXPROCS, and
// leaves the builder empty; the good runs with the same edge AddEdge
// recorded freeze to the rows AddEdge builds.
func TestAddRunsRefusals(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	n, good := randomRuns(rand.New(rand.NewSource(4343)))
	pre := [2]int32{0, int32(n - 1)} // recorded by AddEdge before the runs
	ref := New(n)
	if err := ref.AddEdge(NodeID(pre[0]), NodeID(pre[1]), 2); err != nil {
		t.Fatal(err)
	}
	addOneByOne(t, ref, good)
	want := mustFreeze(ref)

	plant := func(r int, e [2]int32, w float64) func([]testRun) {
		return func(trs []testRun) {
			at := len(trs[r].ends) / 2
			trs[r].ends = slices.Insert(trs[r].ends, at, e)
			trs[r].w = slices.Insert(trs[r].w, at, w)
		}
	}
	setWeight := func(r int, w float64) func([]testRun) {
		return func(trs []testRun) { trs[r].w[len(trs[r].w)/3] = w }
	}
	inRun, other := good[3].ends[10], good[9].ends[20]
	edge := func(e [2]int32) string { return fmt.Sprintf("%d-%d", min(e[0], e[1]), max(e[0], e[1])) }
	cases := []struct {
		name   string
		mutate func([]testRun)
		want   string
	}{
		{"duplicate in a run", plant(3, inRun, 1), edge(inRun) + ": already present"},
		{"duplicate in a run, reversed", plant(3, [2]int32{inRun[1], inRun[0]}, 1), edge(inRun) + ": already present"},
		{"same edge in two runs", plant(9, inRun, 1), edge(inRun) + ": already present"},
		{"same edge in the last run", plant(len(good)-1, other, 1), edge(other) + ": already present"},
		{"duplicate of an AddEdge edge", plant(5, pre, 1), edge(pre) + ": already present"},
		{"self-loop", plant(7, [2]int32{7, 7}, 1), "self-loop at node 7"},
		{"weight 0", setWeight(11, 0), "weight 0 must be positive"},
		{"weight -1", setWeight(0, -1), "weight -1 must be positive"},
		{"weight NaN", setWeight(len(good)-1, math.NaN()), "weight NaN must be positive"},
		{"weight +Inf", setWeight(23, math.Inf(1)), "weight +Inf must be positive"},
		{"negative node", plant(2, [2]int32{-1, 5}, 1), "add edge -1-5"},
		{"past the last node", plant(2, [2]int32{5, int32(n)}, 1), fmt.Sprintf("add edge 5-%d", n)},
	}
	for _, c := range cases {
		trs := cloneRuns(good)
		c.mutate(trs)
		var first string
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			what := fmt.Sprintf("%s at GOMAXPROCS %d", c.name, procs)
			b := New(n)
			if err := b.AddEdge(NodeID(pre[0]), NodeID(pre[1]), 2); err != nil {
				t.Fatal(err)
			}
			b.AddRuns(runsOf(trs))
			g, err := b.Freeze()
			if err == nil || g != nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("%s: error %v, want one naming %q", what, err, c.want)
			}
			if unknown := strings.HasSuffix(c.name, "node"); errors.Is(err, ErrUnknownNode) != unknown {
				t.Errorf("%s: errors.Is(%v, ErrUnknownNode) is %v", what, err, !unknown)
			}
			if first == "" {
				first = err.Error()
			} else if err.Error() != first {
				t.Errorf("%s: error %q, at GOMAXPROCS 1 %q", what, err, first)
			}
			if b.NumNodes() != 0 {
				t.Fatalf("%s: the refused build left the builder %d nodes", what, b.NumNodes())
			}
		}
	}
	b := New(n)
	if err := b.AddEdge(NodeID(pre[0]), NodeID(pre[1]), 2); err != nil {
		t.Fatal(err)
	}
	b.AddRuns(runsOf(good))
	sameBlock(t, "the good runs", mustFreeze(b), want)
}
