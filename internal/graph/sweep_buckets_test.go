package graph

import (
	"slices"
	"testing"
)

// QueueCase is what QueuesAgree saw of one input: whether the run took
// the bucketed pass, whether it stopped at its goal or declined one it
// reached, and how often the bucketed run queued a settled node again or
// re-parented one.
type QueueCase struct {
	Bucketed, Hit, Declined bool
	Requeued, Reparented    int
}

// QueuesAgree runs one directed sweep — RunPruned's mode — through run,
// which takes the bucketed pass where it can, and through the radix queue
// (runQueue), and fails t unless the two agree: the node returned,
// SettledCount, Absorbed as a set and, node for node, what is final — after a
// run to exhaustion the reached set and every reached node's distance,
// parent and parent-arc weight, bit for bit; after a stop at the goal the
// same of every node the queue's run keys at or below the goal's level, each
// settled in both.
func QueuesAgree(t testing.TB, g *Graph, src NodeID, mask *Mask, absorbing func(NodeID) bool, lower []float64, budget float64, goal NodeID, within float64) QueueCase {
	t.Helper()
	a, b := g.NewSweep(), g.NewSweep()
	defer a.Release()
	defer b.Release()
	got := a.run(src, mask, absorbing, nil, lower, Unreachable, budget, goal, within)
	want := b.runQueue(src, mask, absorbing, nil, lower, Unreachable, budget, goal, within)
	c := QueueCase{
		Bucketed: lower != nil && budget < Unreachable && g.stepInv > 0 && g.valid(src) && lower[src] <= budget,
		Hit:      want != Invalid,
		Declined: want == Invalid && goal != Invalid && b.Reached(goal),
		Requeued: a.requeued, Reparented: a.reparented,
	}
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("from %d, budget %v, goal %d within %v (bucketed %v): "+format, append([]any{src, budget, goal, within, c.Bucketed}, args...)...)
	}
	if got != want || a.settledCount != b.settledCount {
		fail("stopped at %d settling %d, the queue at %d settling %d", got, a.settledCount, want, b.settledCount)
	}
	ga, gb := slices.Clone(a.absorbed), slices.Clone(b.absorbed)
	slices.Sort(ga)
	slices.Sort(gb)
	if !slices.Equal(ga, gb) {
		fail("absorbed %v, the queue %v", ga, gb)
	}
	keys := lower
	if !(budget < Unreachable) {
		keys = nil
	}
	level := Unreachable
	if c.Hit {
		level = b.key(keys, goal) * (1 + TieSlack)
	}
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		if level == Unreachable && a.Reached(v) != b.Reached(v) {
			fail("node %d reached=%v, by the queue %v", v, a.Reached(v), b.Reached(v))
		}
		if !b.Reached(v) || b.key(keys, v) > level {
			continue
		}
		if !a.Reached(v) || a.dist[v] != b.dist[v] || a.parent[v] != b.parent[v] || (a.parent[v] != Invalid && a.pw[v] != b.pw[v]) {
			fail("node %d (dist, parent, arc) = (%v, %d, %v), the queue (%v, %d, %v)", v, a.Dist(v), a.Parent(v), a.pw[v], b.dist[v], b.parent[v], b.pw[v])
		}
		if a.settled[v] != a.epoch || b.settled[v] != b.epoch {
			fail("node %d keyed at or below the level: settled %v, by the queue %v", v, a.settled[v] == a.epoch, b.settled[v] == b.epoch)
		}
	}
	return c
}
