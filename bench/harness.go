package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"smrp/internal/core"
	"smrp/internal/graph"
	"smrp/internal/metrics"
)

// opKind names what one operation of a schedule asks of the program.
type opKind uint8

const (
	kJoin opKind = iota
	kJoinBatch
	kLeave
	kRestore // one Recover call / one POST fail
	kRepair
	kGet
	numKinds
)

var kindNames = [numKinds]string{"join", "joinbatch", "leave", "restore", "repair", "get"}

type link struct{ a, b graph.NodeID }

// op is one operation of a schedule. The generators leave state-dependent
// fields (which link a restore cuts, which member churns while the link is
// down) open; the resolve pass fills them once, so every later pass replays
// the same concrete operations.
type op struct {
	kind  opKind
	idx   int // position in the flattened schedule
	sess  int
	node  graph.NodeID   // join/leave: the member; restore: the member whose path is cut
	nodes []graph.NodeID // joinbatch: the members; churn leave: candidates, in order of preference
	link  link           // restore/repair: the cut, filled by the resolve pass
	churn bool           // leave/join issued while a cut stands; node filled by the resolve pass
}

// segment is the unit a pass runs to completion before anything else may
// happen (a calibration bracket, a probe between slices): its lanes run
// concurrently, one goroutine and one closed loop each.
type segment [][]*op

// schedule is the whole pass: admit everything, (standing point), restore,
// churn. Identical for every pass of a run.
type schedule struct {
	sources  []graph.NodeID   // per session
	admitted [][]graph.NodeID // per session: members present at the standing point
	final    [][]graph.NodeID // per session: members expected at the end of a pass
	admit    []segment
	rest     []segment // everything after the standing point
	nOps     int
}

func (s *schedule) segments() []segment {
	return append(append([]segment(nil), s.admit...), s.rest...)
}

// number assigns flat indices; call once the generator is done.
func (s *schedule) number() {
	n := 0
	for _, seg := range s.segments() {
		for _, lane := range seg {
			for _, o := range lane {
				o.idx = n
				n++
			}
		}
	}
	s.nOps = n
}

// out is what an operation returned, copied by reference out of the
// program's own result so that reading it costs the timed call nothing.
type out struct {
	joins        []*core.JoinResult // join: one; joinbatch: one per member; nil where the driver has none
	recovered    map[graph.NodeID]float64
	disconnected []graph.NodeID
	unrecovered  []graph.NodeID
	readmitted   []graph.NodeID
	snap         *core.Snapshot
}

// recoveredMembers lists who came back, in ascending order: sums and hashes
// over the map must not depend on its iteration order.
func (r *out) recoveredMembers() []graph.NodeID {
	ms := make([]graph.NodeID, 0, len(r.recovered))
	for m := range r.recovered {
		ms = append(ms, m)
	}
	slices.Sort(ms)
	return ms
}

// driver is one way of reaching the program: direct calls on a flat session,
// the hierarchy, the actor mailbox, HTTP. Methods may be called concurrently
// for different sessions.
type driver interface {
	open(sess int, source graph.NodeID) error // untimed; before the pass
	join(sess int, n graph.NodeID) (out, error)
	joinBatch(sess int, ns []graph.NodeID) (out, error)
	leave(sess int, n graph.NodeID) error
	restore(sess int, l link) (out, error)
	repair(sess int, l link) (out, error)
	get(sess int) (out, error)
	closeAll() // untimed; after the pass
}

// oracle is a driver with direct access to session state, used to resolve a
// schedule and to check outputs.
type oracle interface {
	driver
	// session returns the flat session that owns node n of session sess
	// (the domain sub-session, in a hierarchy) and the map from the
	// schedule's node IDs to that session's.
	session(sess int, n graph.NodeID) (*core.Session, func(graph.NodeID) graph.NodeID, error)
	// cutFor is the failure this workload injects for member m.
	cutFor(sess int, m graph.NodeID) (link, error)
	// check validates session sess against the members it should hold.
	check(sess int, want []graph.NodeID) error
	// fold hashes the session's state into h.
	fold(h *hasher, sess int)
	// stretch sums tree delay ÷ independent shortest-path delay over the
	// members of sess.
	stretch(sess int, members []graph.NodeID) (sum float64, n int, err error)
	// flat lists every flat session standing right now.
	flat() []*core.Session
}

func (o *op) run(d driver) (out, error) {
	switch o.kind {
	case kJoin:
		return d.join(o.sess, o.node)
	case kJoinBatch:
		return d.joinBatch(o.sess, o.nodes)
	case kLeave:
		return out{}, d.leave(o.sess, o.node)
	case kRestore:
		return d.restore(o.sess, o.link)
	case kRepair:
		return d.repair(o.sess, o.link)
	default:
		return d.get(o.sess)
	}
}

// hasher is FNV-1a over 64-bit words.
type hasher uint64

func newHasher() hasher { return 14695981039346656037 }

func (h *hasher) word(x uint64) {
	for i := 0; i < 8; i++ {
		*h = (*h ^ hasher(x&0xff)) * 1099511628211
		x >>= 8
	}
}
func (h *hasher) node(n graph.NodeID) { h.word(uint64(int64(n))) }
func (h *hasher) float(f float64)     { h.word(math.Float64bits(f)) }
func (h *hasher) nodes(ns []graph.NodeID) {
	h.word(uint64(len(ns)))
	for _, n := range ns {
		h.node(n)
	}
}

// foldOut hashes the behaviour an operation showed: which path a joiner got
// and at what delay, who was cut off, who came back over what distance, what
// a reader saw. Work counters stay out: a change may do less work for the
// same answer.
func (h *hasher) foldOut(o *op, r *out) {
	h.word(uint64(o.kind))
	for _, j := range r.joins {
		if j == nil {
			h.word(0)
			continue
		}
		h.node(j.Member)
		h.node(j.Merger)
		h.nodes(j.Connection)
		h.float(j.Delay)
		h.float(j.SPFDelay)
		if j.WithinBound {
			h.word(1)
		}
		h.nodes(j.Reshaped)
	}
	h.nodes(r.disconnected)
	h.nodes(r.unrecovered)
	h.nodes(r.readmitted)
	for _, m := range r.recoveredMembers() {
		h.node(m)
		h.float(r.recovered[m])
	}
	if r.snap != nil {
		h.node(r.snap.Source)
		for _, m := range r.snap.Members {
			h.node(m.Node)
			h.float(m.Delay)
			h.word(uint64(m.SHR))
		}
		h.nodes(r.snap.Parked)
		h.word(uint64(r.snap.OnTreeNodes))
		h.float(r.snap.TreeCost)
	}
}

// passMode selects what a pass records besides running the schedule.
type passMode int

const (
	plainPass  passMode = iota // run and check only
	timedPass                  // per-op latencies inside calibrated slices
	tracedPass                 // timedPass plus spans, counters and probes
)

// passResult is what one pass of a schedule produced.
type passResult struct {
	digest   uint64
	failed   int       // ops that returned an error or a wrong output
	raw      []float64 // per op, nanoseconds as measured
	norm     []float64 // per op, nanoseconds at reference speed
	seconds  float64   // reference-speed seconds of timed work in the pass
	rawSecs  float64   // the same as measured
	rdSum    float64   // recovery distance over recovered members
	rdN      int
	firstErr error

	state uint64           // oracle drivers: hash of the sessions' final state
	spf   metrics.SPFStats // tracedPass, single lane: summed over ops
}

// runner executes passes of one schedule.
type runner struct {
	sched  *schedule
	cal    *calibrator
	tr     *tracer // nil unless this pass records spans
	probes *prober // nil unless this pass replays layer boundaries

	rootSpan    int32
	sliceTarget time.Duration
}

type laneState struct {
	h      hasher
	failed int
	rdSum  float64
	rdN    int
	err    error
	spf    metrics.SPFStats
}

// passOpts are the hooks of one pass. standing is called at the standing
// point (everything admitted, nothing failed yet), atEnd after the last
// operation while the sessions still stand; both run outside every clock.
// serial runs a segment's lanes one after the other on the calling goroutine.
type passOpts struct {
	standing  func() error
	atEnd     func(*passResult) error
	serial    bool
	admitOnly bool // stop at the standing point
}

// pass runs the schedule once through d.
func (r *runner) pass(d driver, mode passMode, passID int, opts passOpts) (*passResult, error) {
	s := r.sched
	for i, src := range s.sources {
		if err := d.open(i, src); err != nil {
			return nil, fmt.Errorf("open session %d: %w", i, err)
		}
	}
	defer d.closeAll()
	res := &passResult{}
	if mode != plainPass {
		res.raw = make([]float64, s.nOps)
		res.norm = make([]float64, s.nOps)
	}
	runtime.GC()

	h := newHasher()
	var before calReading
	var sliceStart time.Time
	var sliceSegs []segment
	var sliceSpan int32
	passSpan := r.tr.begin("pass", r.rootSpan, passID)
	if r.probes != nil {
		r.probes.beginPass()
	}
	openSlice := func() {
		before = r.cal.probe()
		sliceStart = time.Now()
		sliceSegs = sliceSegs[:0]
		sliceSpan = r.tr.begin("slice", passSpan, passID)
	}
	closeSlice := func(after calReading) {
		f := r.cal.factor(before, after)
		for _, seg := range sliceSegs {
			// Lanes run side by side: the segment lasts as long as its
			// longest lane.
			var segNS float64
			for _, lane := range seg {
				var laneNS float64
				for _, o := range lane {
					res.norm[o.idx] = res.raw[o.idx] / f.at(res.raw[o.idx])
					laneNS += res.raw[o.idx]
				}
				segNS = math.Max(segNS, laneNS)
			}
			res.rawSecs += segNS / 1e9
			res.seconds += segNS / 1e9 / f.total()
		}
		if r.probes != nil {
			r.probes.closeSlice(f)
		}
		r.tr.endWith(sliceSpan, map[string]float64{"cal.factor": f.total(), "cal.factor_short": f.f[0]})
	}

	segs := s.segments()
	if opts.admitOnly {
		segs = s.admit
	}
	for si, seg := range segs {
		if si == len(s.admit) && opts.standing != nil {
			if err := opts.standing(); err != nil {
				return nil, err
			}
		}
		if mode != plainPass && len(sliceSegs) == 0 {
			openSlice()
		}
		lanes := make([]laneState, len(seg))
		run := func(li int) {
			ls := &lanes[li]
			ls.h = newHasher()
			for _, o := range seg[li] {
				r.runOp(d, o, mode, ls, res, sliceSpan, passID, len(seg) == 1 || opts.serial)
			}
		}
		if len(seg) == 1 || opts.serial {
			for li := range seg {
				run(li)
			}
		} else {
			var wg sync.WaitGroup
			for li := range seg {
				wg.Add(1)
				go func(li int) { defer wg.Done(); run(li) }(li)
			}
			wg.Wait()
		}
		for li := range lanes {
			ls := &lanes[li]
			h.word(uint64(ls.h))
			res.failed += ls.failed
			res.rdSum += ls.rdSum
			res.rdN += ls.rdN
			res.spf = addSPF(res.spf, ls.spf)
			if res.firstErr == nil {
				res.firstErr = ls.err
			}
		}
		if mode != plainPass {
			sliceSegs = append(sliceSegs, seg)
			if time.Since(sliceStart) >= r.sliceTarget || si == len(segs)-1 {
				after := r.cal.probe()
				closeSlice(after)
				sliceSegs = sliceSegs[:0]
			}
		}
	}
	r.tr.end(passSpan)
	res.digest = uint64(h)
	if opts.atEnd != nil {
		if err := opts.atEnd(res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runOp issues one operation, times it if the mode asks, and folds what it
// returned into the lane's hash outside the clock.
func (r *runner) runOp(d driver, o *op, mode passMode, ls *laneState, res *passResult, parent int32, passID int, alone bool) {
	var sp int32
	var spf0 metrics.SPFStats
	traced := mode == tracedPass
	probed := traced && alone && r.probes != nil
	if traced {
		sp = r.tr.begin("op."+kindNames[o.kind], parent, passID)
		if probed {
			r.probes.before(o, sp, passID)
		}
		if alone {
			spf0 = graph.SPFCounters()
		}
	}
	var t0 time.Time
	if mode != plainPass {
		t0 = time.Now()
	}
	ret, err := o.run(d)
	if mode != plainPass {
		res.raw[o.idx] = float64(time.Since(t0).Nanoseconds())
	}
	if traced {
		if alone {
			ls.spf = addSPF(ls.spf, graph.SPFCounters().Sub(spf0))
		}
		if probed {
			r.probes.after(o, sp, passID)
		}
		// The span covers the operation and the replays it caused; the
		// operation's own latency rides along.
		r.tr.endOp(sp, res.raw[o.idx])
	}
	if err != nil {
		ls.failed++
		if ls.err == nil {
			ls.err = fmt.Errorf("%s (session %d, node %d): %w", kindNames[o.kind], o.sess, o.node, err)
		}
		return
	}
	if o.kind == kRestore && len(ret.disconnected) == 0 {
		// The cut no longer lies on the tree: the run has left the
		// schedule it resolved, and the restore measured nothing.
		ls.failed++
		if ls.err == nil {
			ls.err = fmt.Errorf("restore (session %d, link %d-%d) disconnected nobody", o.sess, o.link.a, o.link.b)
		}
	}
	for _, m := range ret.recoveredMembers() {
		ls.rdSum += ret.recovered[m]
		ls.rdN++
	}
	ls.h.foldOut(o, &ret)
}

func addSPF(a, b metrics.SPFStats) metrics.SPFStats {
	return metrics.SPFStats{
		FullRuns:     a.FullRuns + b.FullRuns,
		DeltaRuns:    a.DeltaRuns + b.DeltaRuns,
		NodesSettled: a.NodesSettled + b.NodesSettled,
		CacheHits:    a.CacheHits + b.CacheHits,
		CacheMisses:  a.CacheMisses + b.CacheMisses,
	}
}

// median of xs; 0 when empty.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank quantile of xs, which is left in the order it
// came; 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return c[max(0, int(math.Ceil(q*float64(len(c))))-1)]
}

// perOpMedians reduces the timed passes to one latency per operation: the
// median across passes of the operation's latency, at reference speed or as
// measured. Every pass issues operation i against the same state, so what
// varies between passes is the machine, not the work.
func perOpMedians(passes []*passResult, nOps int, normalised bool) []float64 {
	med := make([]float64, nOps)
	buf := make([]float64, len(passes))
	for i := 0; i < nOps; i++ {
		for k, p := range passes {
			if normalised {
				buf[k] = p.norm[i]
			} else {
				buf[k] = p.raw[i]
			}
		}
		med[i] = median(buf)
	}
	return med
}

// byKind splits per-op values by operation kind, in schedule order.
func (s *schedule) byKind(vals []float64) [numKinds][]float64 {
	var outv [numKinds][]float64
	for _, seg := range s.segments() {
		for _, lane := range seg {
			for _, o := range lane {
				outv[o.kind] = append(outv[o.kind], vals[o.idx])
			}
		}
	}
	return outv
}

// passSeconds is the median reference-speed duration of the passes.
func passSeconds(passes []*passResult) float64 {
	secs := make([]float64, len(passes))
	for i, p := range passes {
		secs[i] = p.seconds
	}
	return median(secs)
}

func heapAllocMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
