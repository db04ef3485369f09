package graph

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// A Run is one batch of edges for Builder.AddRuns: edge i joins nodes
// Ends[i][0] and Ends[i][1] and weighs Weight(i), which must return the same
// weight each time it is called. Freeze calls it on the goroutine that fills
// the run's rows, so the functions of different runs may run concurrently,
// and once more for an edge into a row an earlier run fills.
type Run struct {
	Ends   [][2]int32
	Weight func(i int) float64
}

// insertArcsPerWorker is the fewest arcs Freeze gives a goroutine to fill.
// It is the measured crossover on runs shaped like megascale domains (100
// nodes, degree 47, about 4 750 arcs a run) on two goroutines: 38 000 arcs
// insert about a tenth slower than on one, 57 000 break even, 76 000 gain
// about a tenth and 1.4 million (a hier_restore hierarchy) a sixth. So a
// paper-sized topology is laid out on the caller's goroutine, a megascale
// hierarchy on all of them.
const insertArcsPerWorker = 1 << 15

// AddRuns records the runs, for Freeze to lay out with the edges AddEdge
// records. The builder keeps the runs themselves: their edges must not
// change before Freeze.
func (b *Builder) AddRuns(runs []Run) { b.runs = append(b.runs, runs...) }

// layout lays the edges of the runs out as the rows of n nodes: it counts
// every row's degree, carves one block of exactly their arcs, row u at
// [off[u], off[u+1]) of to and w, and fills it. Each row belongs to the
// first run that touches it, and the runs fill the rows they own on up to
// GOMAXPROCS goroutines, one run at a time each; the arcs a later run adds
// to a row, such as a hierarchy's uplinks, follow on the caller's goroutine,
// in run order. A small build runs on the caller's goroutine throughout.
// Rows end holding the same arcs whatever the goroutine count, in no
// particular order.
//
// layout refuses what Freeze documents, in that order, and panics, before
// allocating, when the rows would pass math.MaxInt32 arcs.
func layout(n int, runs []Run) (off, to []int32, w []float64, err error) {
	total := 0
	for _, r := range runs {
		total += 2 * len(r.Ends)
	}
	if total > math.MaxInt32 {
		panic(fmt.Sprintf("graph: %d arcs exceed the limit of %d", total, math.MaxInt32))
	}
	// off[u] counts row u's arcs, then marks where the row ends, and each
	// arc filled moves it back one, to where the row starts once it is full.
	// owner[u] is r+1 for the first run r that touches row u.
	off, owner := make([]int32, n+1), make([]int32, n)
	for r, run := range runs {
		own := int32(r + 1)
		for _, e := range run.Ends {
			u, v := e[0], e[1]
			if uint32(u) >= uint32(n) || uint32(v) >= uint32(n) || u == v {
				return nil, nil, nil, checkEnds(n, NodeID(u), NodeID(v))
			}
			off[u]++
			off[v]++
			if owner[u] == 0 {
				owner[u] = own
			}
			if owner[v] == 0 {
				owner[v] = own
			}
		}
	}
	for u := range n {
		off[u+1] += off[u]
	}
	to, w = make([]int32, total), make([]float64, total)

	// Fill the rows each run owns, run by run, and set aside the edges with
	// an end in a row an earlier run owns. bad[r] refuses run r's first bad
	// weight.
	later := make([][]int32, len(runs))
	bad := make([]error, len(runs))
	fill := func(r int) {
		run, own := runs[r], int32(r+1)
		for i, e := range run.Ends {
			x := run.Weight(i)
			if !goodWeight(x) {
				bad[r] = weightError(NodeID(e[0]), NodeID(e[1]), x)
				return
			}
			u, v := e[0], e[1]
			if owner[u] == own {
				off[u]--
				to[off[u]], w[off[u]] = v, x
			}
			if owner[v] == own {
				off[v]--
				to[off[v]], w[off[v]] = u, x
			}
			if owner[u] != own || owner[v] != own {
				later[r] = append(later[r], int32(i))
			}
		}
	}
	if workers := min(runtime.GOMAXPROCS(0), len(runs), total/insertArcsPerWorker); workers <= 1 {
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
			return nil, nil, nil, err
		}
	}
	for r, edges := range later {
		for _, i := range edges {
			e, x := runs[r].Ends[i], runs[r].Weight(int(i))
			for k, u := range e {
				if owner[u] != int32(r+1) {
					off[u]--
					to[off[u]], w[off[u]] = e[1-k], x
				}
			}
		}
	}

	if u, v, dup := firstDuplicate(off, to); dup {
		return nil, nil, nil, fmt.Errorf("add edge %d-%d: already present", u, v)
	}
	return off, to, w, nil
}

// firstDuplicate finds the lowest row of the block to, row u at [off[u],
// off[u+1]), that holds a far end twice, and returns it with the least far
// end it holds twice: the lowest duplicate edge in (A, B) order, since a far
// end below the row would be a duplicate in a lower row. It marks each row's
// far ends on a bitset of the nodes, one per goroutine, and clears them
// after the row, on as many goroutines as the arcs warrant.
func firstDuplicate(off, to []int32) (NodeID, NodeID, bool) {
	n := len(off) - 1
	workers := min(runtime.GOMAXPROCS(0), len(to)/insertArcsPerWorker)
	// dup[k] is span k's first row with a duplicate and its least far end
	// held twice, or -1s.
	dup := make([][2]int32, max(workers, 1))
	for k := range dup {
		dup[k] = [2]int32{-1, -1}
	}
	forRows(n, workers, func(k, first, last int) {
		seen := make([]uint64, (n+63)/64)
		for u := first; u < last && dup[k][0] < 0; u++ {
			row := to[off[u]:off[u+1]]
			for _, t := range row {
				bit := uint64(1) << (t & 63)
				if seen[t>>6]&bit != 0 && (dup[k][0] < 0 || t < dup[k][1]) {
					dup[k] = [2]int32{int32(u), t}
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
