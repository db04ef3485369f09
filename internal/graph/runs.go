package graph

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// A Run is one batch of edges for Builder.AddRuns: edge i joins nodes
// Ends[i][0] and Ends[i][1] and weighs Weight(i), which must return the same
// weight each time it is called. AddRuns calls it on the goroutine that
// fills the run's rows, so the functions of different runs may run
// concurrently, and once more for an edge into a row an earlier run fills.
type Run struct {
	Ends   [][2]int32
	Weight func(i int) float64
}

// insertArcsPerWorker is the fewest new arcs AddRuns gives a goroutine. It
// is the measured crossover on runs shaped like megascale domains (100
// nodes, degree 47, about 4 750 arcs a run) on two goroutines: 38 000 arcs
// insert about a tenth slower than on one, 57 000 break even, 76 000 gain
// about a tenth and 1.4 million (a hier_restore hierarchy) a sixth. So a
// paper-sized topology is inserted on the caller's goroutine, a megascale
// hierarchy on all of them.
const insertArcsPerWorker = 1 << 15

// AddRuns inserts every edge of the runs, into rows it first reserves at
// their exact final size, so a build that inserts all its edges in one call
// fills its block and freezes without a copy. Each row belongs to the first
// run that touches it, and the runs fill the rows they own on up to
// GOMAXPROCS goroutines, one run at a time each; the arcs a later run adds
// to a row, such as a hierarchy's uplinks, follow on the caller's goroutine,
// in run order. A small insert runs on the caller's goroutine throughout.
// Rows end holding the same arcs whatever the goroutine count, and Freeze
// sorts them.
//
// AddRuns refuses what AddEdge refuses, naming the edge: first an unknown
// endpoint or a self-loop, the first in run order; then a weight that is not
// positive and finite, the first in run order; then a duplicate, within the
// runs or of an edge already there, in the lowest row that holds one. It
// finds duplicates in one pass per row over a bitset of the nodes, O(arcs)
// in all. On error no edge is inserted; the rows keep the room reserved for
// them. It panics when the rows would pass math.MaxInt32 arcs.
func (b *Builder) AddRuns(runs []Run) error {
	g := &b.g
	total := 2 * g.edges
	for _, r := range runs {
		total += 2 * len(r.Ends)
	}
	checkArcs(total)
	// extra[u] counts row u's new arcs; owner[u] is r+1 for the first run r
	// that touches row u.
	n := len(g.lo)
	extra, owner := make([]int32, n), make([]int32, n)
	for r, run := range runs {
		own := int32(r + 1)
		for _, e := range run.Ends {
			u, v := e[0], e[1]
			if uint32(u) >= uint32(n) || uint32(v) >= uint32(n) || u == v {
				return g.checkEnds(NodeID(u), NodeID(v))
			}
			extra[u]++
			extra[v]++
			if owner[u] == 0 {
				owner[u] = own
			}
			if owner[v] == 0 {
				owner[v] = own
			}
		}
	}
	b.reserve(extra)
	arcs := total - 2*g.edges

	// Fill the rows each run owns, run by run, and set aside the edges with
	// an end in a row an earlier run owns. bad[r] refuses run r's first bad
	// weight.
	later := make([][]int32, len(runs))
	bad := make([]error, len(runs))
	fill := func(r int) {
		run, own := runs[r], int32(r+1)
		for i, e := range run.Ends {
			w := run.Weight(i)
			if !goodWeight(w) {
				bad[r] = weightError(NodeID(e[0]), NodeID(e[1]), w)
				return
			}
			u, v := e[0], e[1]
			if owner[u] == own {
				g.to[g.hi[u]], g.w[g.hi[u]] = v, w
				g.hi[u]++
			}
			if owner[v] == own {
				g.to[g.hi[v]], g.w[g.hi[v]] = u, w
				g.hi[v]++
			}
			if owner[u] != own || owner[v] != own {
				later[r] = append(later[r], int32(i))
			}
		}
	}
	if workers := min(runtime.GOMAXPROCS(0), len(runs), arcs/insertArcsPerWorker); workers <= 1 {
		for r := range runs {
			fill(r)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for ; workers > 0; workers-- {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := int(next.Add(1)) - 1; r < len(runs); r = int(next.Add(1)) - 1 {
					fill(r)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range bad {
		if err != nil {
			b.unreserve(extra)
			return err
		}
	}
	for r, edges := range later {
		for _, i := range edges {
			e, w := runs[r].Ends[i], runs[r].Weight(int(i))
			for k, x := range e {
				if owner[x] != int32(r+1) {
					g.to[g.hi[x]], g.w[g.hi[x]] = e[1-k], w
					g.hi[x]++
				}
			}
		}
	}

	if u, v, dup := g.firstDuplicate(extra, arcs); dup {
		b.unreserve(extra)
		return duplicateError(u, v)
	}
	g.edges += arcs / 2
	return nil
}

// unreserve drops the arcs an AddRuns that failed put in the rows: row u's
// last extra[u] places, which reserve made room for.
func (b *Builder) unreserve(extra []int32) {
	for u, x := range extra {
		b.g.hi[u] = b.end[u] - x
	}
}

// firstDuplicate finds the lowest row among those extra gives new arcs that
// holds one far end twice, and returns that row and far end. It marks each
// row's far ends on a bitset of the nodes, one per goroutine, and clears
// them after the row, on as many goroutines as the new arcs warrant.
func (g *Graph) firstDuplicate(extra []int32, arcs int) (NodeID, NodeID, bool) {
	n := len(g.lo)
	workers := min(runtime.GOMAXPROCS(0), arcs/insertArcsPerWorker)
	// dup[k] is span k's first row with a duplicate and its far end.
	dup := make([][2]int32, max(workers, 1))
	forRows(n, workers, func(k, first, last int) {
		dup[k] = [2]int32{-1, -1}
		seen := make([]uint64, (n+63)/64)
		for u := first; u < last; u++ {
			if extra[u] == 0 {
				continue
			}
			row := g.to[g.lo[u]:g.hi[u]]
			for _, t := range row {
				bit := uint64(1) << (t & 63)
				if seen[t>>6]&bit != 0 {
					dup[k] = [2]int32{int32(u), t}
					return
				}
				seen[t>>6] |= bit
			}
			for _, t := range row {
				seen[t>>6] = 0 // only this row's bits are set
			}
		}
	})
	if k := slices.IndexFunc(dup, func(d [2]int32) bool { return d[0] >= 0 }); k >= 0 {
		return NodeID(dup[k][0]), NodeID(dup[k][1]), true
	}
	return 0, 0, false
}
