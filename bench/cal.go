package main

import (
	"math"
	"sync"
	"time"
)

// The calibration kernel: a binary-heap Dijkstra over a synthetic graph held
// in flat slices (the memory shape of graph.Sweep) that calls no repository
// code. Its run time tracks how fast this machine is right now, so timings
// bracketed by it can be expressed at one reference speed. Nobody may edit
// the kernel silently: TestCalKernelChecksum pins its output.
const (
	calNodes  = 1 << 16
	calDegree = 6

	// calRefNS is the kernel's run time on the machine the baseline was
	// recorded on, when quiet. A duration divided by (kernel time now ÷
	// calRefNS) reads as if it had been measured there.
	calRefNS = 16.0e6

	// calChecksum is what calKernel returns; it depends on nothing but the
	// constants in this file.
	calChecksum = 0x6ef4f3b1004c2778

	// calTolerance is the relative gap between the kernel runs before and
	// after a slice beyond which the slice is counted as unsteady.
	calTolerance = 0.10

	// calChunkPops is how many heap pops make one chunk of the kernel; every
	// chunk is timed on its own (≈50 µs each, ≈370 to a run).
	calChunkPops = 256

	// calWarmups is how many kernel runs the chunk profile is taken from.
	calWarmups = 5
)

// calWindows are the time scales, in chunks, at which a kernel run is read
// besides as a whole. A shared machine slows a program down in two ways: all
// of it, for seconds or minutes (a slower clock, a busy sibling thread), and
// in bursts, by taking the processor away for a millisecond or so at a time.
// The first kind stretches every operation alike. The second kind stretches
// the total and leaves the median of anything shorter than the gap between
// bursts alone, so one number cannot undo both. The kernel is therefore read
// at several scales: at each, the median over windows of that many chunks of
// (time taken ÷ the window's share of a quiet run) estimates what the whole
// run would have taken had every window gone like the typical one. An
// operation is normalised by the reading at the scale nearest its own
// duration; sums (a pass, a set-up) by the run as a whole.
var calWindows = [...]int{1, 4, 16, 64}

const calScales = len(calWindows) + 1 // the last is the run as a whole

// calReading is one kernel run, in nanoseconds, as estimated at every scale.
// All entries agree when the machine ran evenly.
type calReading [calScales]float64

func (r calReading) total() float64 { return r[calScales-1] }

type calGraph struct {
	to   []int32   // calNodes × calDegree arc heads
	w    []float32 // arc weights, parallel to to
	dist []float32
	heap []calItem

	chunks  []float64 // the last run, chunk by chunk, nanoseconds
	totalNS float64   // the last run as a whole
}

type calItem struct {
	d float32
	n int32
}

func newCalGraph() *calGraph {
	g := &calGraph{
		to:   make([]int32, calNodes*calDegree),
		w:    make([]float32, calNodes*calDegree),
		dist: make([]float32, calNodes),
		heap: make([]calItem, 0, calNodes),
	}
	x := uint64(0x9E3779B97F4A7C15)
	for i := range g.to {
		// splitmix64: arcs and weights are fixed for all time.
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		g.to[i] = int32(z % calNodes)
		g.w[i] = 1 + float32((z>>32)%1000)/100
	}
	return g
}

// run sweeps the whole graph from node 0 and returns a checksum of the
// distances found. It times every chunk of calChunkPops pops into g.chunks
// (a last, partial chunk is left out) and the run as a whole into g.totalNS.
func (g *calGraph) run() uint64 {
	inf := float32(math.Inf(1))
	for i := range g.dist {
		g.dist[i] = inf
	}
	g.dist[0] = 0
	h := append(g.heap[:0], calItem{0, 0})
	g.chunks = g.chunks[:0]
	pops := 0
	start := time.Now()
	mark := start
	for len(h) > 0 {
		if pops++; pops%calChunkPops == 0 {
			now := time.Now()
			g.chunks = append(g.chunks, float64(now.Sub(mark).Nanoseconds()))
			mark = now
		}
		top := h[0]
		last := h[len(h)-1]
		h = h[:len(h)-1]
		if len(h) > 0 {
			i := 0
			for {
				c := 2*i + 1
				if c >= len(h) {
					break
				}
				if c+1 < len(h) && h[c+1].d < h[c].d {
					c++
				}
				if h[c].d >= last.d {
					break
				}
				h[i] = h[c]
				i = c
			}
			h[i] = last
		}
		if top.d > g.dist[top.n] {
			continue
		}
		base := int(top.n) * calDegree
		for k := base; k < base+calDegree; k++ {
			nd := top.d + g.w[k]
			v := g.to[k]
			if nd < g.dist[v] {
				g.dist[v] = nd
				h = append(h, calItem{nd, v})
				i := len(h) - 1
				for i > 0 {
					p := (i - 1) / 2
					if h[p].d <= nd {
						break
					}
					h[i] = h[p]
					i = p
				}
				h[i] = calItem{nd, v}
			}
		}
	}
	g.heap = h
	g.totalNS = float64(time.Since(start).Nanoseconds())
	var sum uint64
	for i, d := range g.dist {
		sum = sum*1099511628211 ^ uint64(math.Float32bits(d)) ^ uint64(i)
	}
	return sum
}

// calKernel is the kernel and its chunk profile: the share of a quiet run
// each chunk takes. Built on first use and shared by every calibrator of the
// process; kernel runs never overlap.
type calKernel struct {
	g       *calGraph
	profile []float64 // per chunk; sums to 1 with the tail
}

var kernel = sync.OnceValue(func() *calKernel {
	k := &calKernel{g: newCalGraph()}
	k.g.run() // page the graph in
	// Each chunk's quiet time is its fastest of a few runs: a burst hits a
	// chunk in some runs, not in all.
	var best []float64
	for i := 0; i < calWarmups; i++ {
		k.g.run()
		if best == nil {
			best = append(best, k.g.chunks...)
		}
		for c, ns := range k.g.chunks {
			best[c] = math.Min(best[c], ns)
		}
	}
	// The partial last chunk and the checksum loop are not in chunks; their
	// share is taken as what they cost in the last warm-up run.
	sum := sumOf(best) + k.g.totalNS - sumOf(k.g.chunks)
	k.profile = best
	for c := range k.profile {
		k.profile[c] /= sum
	}
	return k
})

func sumOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// readingOf reads one kernel run at every scale. chunks and profile run in
// parallel.
func readingOf(chunks, profile []float64, totalNS float64) calReading {
	var r calReading
	est := make([]float64, 0, len(chunks))
	for s, w := range calWindows {
		est = est[:0]
		for i := 0; i+w <= len(chunks); i += w {
			est = append(est, sumOf(chunks[i:i+w])/sumOf(profile[i:i+w]))
		}
		r[s] = median(est)
	}
	r[calScales-1] = totalNS
	return r
}

// calFactor is the speed factor of one slice at every scale: kernel time as
// read there over the reference.
type calFactor struct {
	f       calReading
	chunkNS float64 // what a chunk took, on average, while the slice ran
}

func (f calFactor) total() float64 { return f.f.total() }

// at is the factor for an operation that took rawNS as measured: the one
// read at the scale nearest that duration.
func (f calFactor) at(rawNS float64) float64 {
	for s, w := range calWindows {
		if rawNS < 2*float64(w)*f.chunkNS {
			return f.f[s]
		}
	}
	return f.total()
}

// calibrator turns kernel timings into speed factors and keeps what the
// instrument's own health metrics need.
type calibrator struct {
	factors  []float64 // whole-run factor of every slice
	bursts   []float64 // per slice: the share of the kernel's time that went to bursts
	unsteady int       // slices whose two brackets were more than calTolerance apart
}

// probe runs the kernel once and reads it.
func (c *calibrator) probe() calReading {
	k := kernel()
	if k.g.run() != calChecksum {
		panic("bench: calibration kernel checksum changed")
	}
	return readingOf(k.g.chunks, k.profile, k.g.totalNS)
}

// factor is the speed factor of a slice bracketed by two kernel readings:
// their mean over the reference. A slice whose brackets disagree still
// counts: the machine changes speed several times a second, every pass
// replays the same operations, and the median across passes discards the
// slices that straddled a change.
func (c *calibrator) factor(before, after calReading) calFactor {
	var f calFactor
	for s := range f.f {
		f.f[s] = (before[s] + after[s]) / 2 / calRefNS
	}
	f.chunkNS = (before.total() + after.total()) / 2 / float64(len(kernel().profile))
	if math.Abs(before.total()-after.total()) > calTolerance*math.Min(before.total(), after.total()) {
		c.unsteady++
	}
	c.factors = append(c.factors, f.total())
	c.bursts = append(c.bursts, 1-f.f[0]/f.total())
	return f
}
