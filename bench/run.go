package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"time"

	"smrp/internal/graph"
)

// options are one run's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    string
	traceDir string
	log      io.Writer // diagnostics; the result goes to standard output
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the run's result: the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	digest uint64             // behaviour digest of the reference pass
	diag   map[string]float64 // as-measured values and the instrument's health, for --record
}

const (
	setupReps   = 3
	minPasses   = 2
	sliceTarget = 200 * time.Millisecond
	boundSlack  = 1e-9 // relative slack of floating-point comparisons in checks
)

// resolved is what the resolve pass learned besides the schedule's open
// fields.
type resolved struct {
	digest  uint64
	stretch float64 // mean tree delay ÷ independent shortest-path delay at the standing point
}

// resolve runs the schedule once through the oracle, filling in every
// state-dependent field (which link each restore cuts, who churns while it is
// down) and checking every output against the invariants the paper states
// and against the benchmark's own shortest paths.
func resolve(e *env, s *schedule) (resolved, error) {
	var res resolved
	o := e.oracle
	for i, src := range s.sources {
		if err := o.open(i, src); err != nil {
			return res, err
		}
	}
	defer o.closeAll()
	ref := newReference()
	cut := make([]link, len(s.sources)) // the cut standing in each session
	cutMember := make([]graph.NodeID, len(s.sources))
	churner := make([]graph.NodeID, len(s.sources))
	for i := range cut {
		cut[i] = noLink
	}
	h := newHasher()
	for si, seg := range s.segments() {
		if si == len(s.admit) {
			var sum float64
			n := 0
			for i := range s.sources {
				if err := o.check(i, s.admitted[i]); err != nil {
					return res, fmt.Errorf("standing point, session %d: %w", i, err)
				}
				ssum, sn, err := o.stretch(i, s.admitted[i])
				if err != nil {
					return res, err
				}
				sum, n = sum+ssum, n+sn
			}
			if n > 0 {
				res.stretch = sum / float64(n)
			}
		}
		for li, lane := range seg {
			lh := newHasher()
			kept := lane[:0]
			for _, op := range lane {
				switch {
				case op.kind == kRestore:
					l, err := o.cutFor(op.sess, op.node)
					if err != nil {
						return res, fmt.Errorf("cut for member %d of session %d: %w", op.node, op.sess, err)
					}
					op.link, cut[op.sess], cutMember[op.sess] = l, l, op.node
				case op.kind == kRepair:
					op.link, op.node = cut[op.sess], cutMember[op.sess]
				case op.kind == kLeave && op.churn:
					x, err := pickChurner(o, ref, op, s.sources[op.sess], cut[op.sess], cutMember[op.sess])
					if err != nil {
						return res, err
					}
					op.node, churner[op.sess] = x, x
				case op.kind == kJoin && op.churn:
					op.node = churner[op.sess]
				}
				if op.churn && op.node == graph.Invalid {
					continue // the cut left nobody able to churn: the pair drops out of the schedule
				}
				kept = append(kept, op)
				ret, err := op.run(o)
				if err != nil {
					return res, fmt.Errorf("%s (session %d, node %d): %w", kindNames[op.kind], op.sess, op.node, err)
				}
				if err := checkOut(e, o, ref, op, &ret, s.sources[op.sess], cut[op.sess]); err != nil {
					return res, err
				}
				if op.kind == kRepair {
					cut[op.sess] = noLink
				}
				lh.foldOut(op, &ret)
			}
			seg[li] = kept
			h.word(uint64(lh))
		}
	}
	s.number()
	for i := range s.sources {
		if err := o.check(i, s.final[i]); err != nil {
			return res, fmt.Errorf("end of pass, session %d: %w", i, err)
		}
	}
	res.digest = uint64(h)
	return res, nil
}

// pickChurner chooses who leaves and rejoins while session op.sess is cut:
// the first candidate that is on the tree, is not the member whose path was
// cut, and can still reach the source, so that its join cannot fail. Invalid
// when there is none.
func pickChurner(o oracle, ref *reference, op *op, src graph.NodeID, cut link, cutMember graph.NodeID) (graph.NodeID, error) {
	for _, x := range op.nodes {
		if x == cutMember {
			continue
		}
		cs, toSub, err := o.session(op.sess, x)
		if err != nil {
			return 0, err
		}
		if !cs.Tree().IsMember(toSub(x)) {
			continue
		}
		if d := ref.dist(cs.Graph(), toSub(src), link{toSub(cut.a), toSub(cut.b)}); !math.IsInf(d[toSub(x)], 1) {
			return x, nil
		}
	}
	return graph.Invalid, nil // the cut took everybody else off the tree
}

// checkOut holds one operation's output to what must be true of it.
func checkOut(e *env, o oracle, ref *reference, op *op, ret *out, src graph.NodeID, cut link) error {
	switch op.kind {
	case kJoin, kJoinBatch:
		for _, j := range ret.joins {
			if j == nil {
				continue
			}
			cs, toSub, err := o.session(op.sess, j.Member)
			if err != nil {
				return err
			}
			want := ref.dist(cs.Graph(), toSub(src), link{toSub(cut.a), toSub(cut.b)})[toSub(j.Member)]
			if math.Abs(j.SPFDelay-want) > boundSlack*want {
				return fmt.Errorf("join %d: SPF delay %v, independent shortest path %v", j.Member, j.SPFDelay, want)
			}
			// The bound is a promise about the path selected, at the
			// moment of selection. A relay that turns member in place
			// selected none; and once the join has made others reshape,
			// Delay is read off a tree that has moved since.
			selected := len(j.Connection) > 1 && len(j.Reshaped) == 0
			if j.WithinBound && selected && j.Delay > (1+e.cfg.DThresh)*want*(1+boundSlack) {
				return fmt.Errorf("join %d: delay %v breaks the bound (1+%v)·%v", j.Member, j.Delay, e.cfg.DThresh, want)
			}
			if !cs.Tree().IsMember(toSub(j.Member)) {
				return fmt.Errorf("join %d: not a member afterwards", j.Member)
			}
		}
	case kRestore:
		if len(ret.disconnected) == 0 {
			return fmt.Errorf("restore (session %d, link %d-%d) disconnected nobody", op.sess, op.link.a, op.link.b)
		}
		cs, _, err := o.session(op.sess, op.node)
		if err != nil {
			return err
		}
		for m, rd := range ret.recovered {
			if !cs.Tree().IsMember(m) || rd < 0 {
				return fmt.Errorf("restore: member %d reported recovered (distance %v) but is off the tree", m, rd)
			}
		}
		for _, m := range ret.unrecovered {
			if !cs.IsParked(m) {
				return fmt.Errorf("restore: member %d reported unrecovered but is not parked", m)
			}
		}
	}
	return nil
}

// endCheck validates every session against the members the schedule leaves
// in it and hashes the state they ended in.
func endCheck(o oracle, s *schedule) func(*passResult) error {
	return func(res *passResult) error {
		h := newHasher()
		for i := range s.sources {
			if err := o.check(i, s.final[i]); err != nil {
				return fmt.Errorf("end of pass, session %d: %w", i, err)
			}
			o.fold(&h, i)
		}
		res.state = uint64(h)
		return nil
	}
}

// session wraps what both kinds of run share: the built environment, the
// resolved schedule and the runner.
type session struct {
	w     workload
	opt   options
	sz    sizes
	cal   *calibrator
	sched *schedule
	res   resolved
	env   *env
}

func (ss *session) logf(format string, a ...interface{}) {
	if ss.opt.log != nil {
		fmt.Fprintf(ss.opt.log, format+"\n", a...)
	}
}

// begin builds the first environment, generates the schedule from the seed
// and resolves it.
func begin(opt options) (*session, error) {
	w, ok := findWorkload(opt.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	sz, ok := scales[opt.scale]
	if !ok {
		return nil, fmt.Errorf("unknown scale %q", opt.scale)
	}
	ss := &session{w: w, opt: opt, sz: sz, cal: &calibrator{}}
	e, err := w.build(sz)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	ss.env = e
	ss.sched = w.gen(sz, e, rand.New(rand.NewSource(opt.seed)))
	ss.res, err = resolve(e, ss.sched)
	if err != nil {
		e.close()
		return nil, fmt.Errorf("resolve: %w", err)
	}
	return ss, nil
}

// atEnd is the end-of-pass check the driver allows: state is read through an
// oracle only.
func (ss *session) atEnd(d driver) func(*passResult) error {
	if o, ok := d.(oracle); ok {
		return endCheck(o, ss.sched)
	}
	return nil
}

// runUntraced measures the end-to-end metrics.
func runUntraced(opt options) (*report, error) {
	ss, err := begin(opt)
	if err != nil {
		return nil, err
	}
	// The environment the schedule was resolved on has served its purpose;
	// set-up is measured on fresh ones.
	if err := ss.env.close(); err != nil {
		return nil, err
	}
	ss.env = nil
	r := &runner{sched: ss.sched, cal: ss.cal, sliceTarget: sliceTarget}

	// Set-up: build the environment and admit everybody once, so that
	// anything the program defers to first use is paid here. Several times
	// over, each bracketed by the calibration kernel.
	var setups, setupsRaw []float64
	var baseMB float64 // what the benchmark itself holds, read with no environment alive
	for i := 0; i < setupReps; i++ {
		if ss.env != nil {
			if err := ss.env.close(); err != nil {
				return nil, err
			}
			ss.env = nil
		}
		baseMB = heapAllocMB()
		before := ss.cal.probe()
		t0 := time.Now()
		e, err := ss.w.build(ss.sz)
		if err != nil {
			return nil, fmt.Errorf("build: %w", err)
		}
		ss.env = e
		if _, err := r.pass(e.primary, plainPass, -1-i, passOpts{admitOnly: true}); err != nil {
			e.close()
			return nil, fmt.Errorf("first pass: %w", err)
		}
		el := time.Since(t0).Seconds()
		setups = append(setups, el/ss.cal.factor(before, ss.cal.probe()).total())
		setupsRaw = append(setupsRaw, el)
	}
	defer ss.env.close()
	e := ss.env

	// The reference pass: same schedule, no clock. Its digests are what
	// every timed pass must reproduce, and its standing point is where the
	// live heap is read.
	var heapMB float64
	e.flushCaches()
	ref, err := r.pass(e.primary, plainPass, 0, passOpts{
		standing: func() error { heapMB = heapAllocMB() - baseMB; return nil },
		atEnd:    ss.atEnd(e.primary),
	})
	if err != nil {
		return nil, fmt.Errorf("reference pass: %w", err)
	}
	rep := &report{Correct: true, Metrics: map[string]metric{}, digest: ref.digest}
	fail := func(format string, a ...interface{}) {
		rep.Correct = false
		ss.logf("INCORRECT: "+format, a...)
	}
	if ref.failed > 0 {
		fail("reference pass: %d operations failed, first: %v", ref.failed, ref.firstErr)
	}
	if ref.digest != ss.res.digest {
		fail("outputs through the measured driver (%#x) differ from direct calls (%#x)", ref.digest, ss.res.digest)
	}

	var passes []*passResult
	start := time.Now()
	for p := 1; len(passes) < minPasses || time.Since(start).Seconds() < opt.seconds; p++ {
		e.flushCaches()
		res, err := r.pass(e.primary, timedPass, p, passOpts{atEnd: ss.atEnd(e.primary)})
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", p, err)
		}
		rep.Attempted += ss.sched.nOps
		rep.Failed += res.failed
		if res.failed > 0 {
			fail("pass %d: %d operations failed, first: %v", p, res.failed, res.firstErr)
		}
		if res.digest != ref.digest || res.state != ref.state {
			fail("pass %d: digests %#x/%#x, reference pass %#x/%#x", p, res.digest, res.state, ref.digest, ref.state)
		}
		passes = append(passes, res)
	}
	if want, ok := pinnedDigests[pinKey(opt)]; ok && want != ref.digest {
		fail("behaviour digest %#x, pinned %#x", ref.digest, want)
	}

	s := ss.sched
	lat := s.byKind(perOpMedians(passes, s.nOps, true))
	rawLat := s.byKind(perOpMedians(passes, s.nOps, false))
	us := func(xs []float64, q float64) float64 { return quantile(xs, q) / 1e3 }
	put := func(name string, v float64, unit string) { rep.Metrics[name] = metric{v, unit} }
	put("setup_s", median(setups), "s")
	put("ops_per_s", float64(s.nOps)/passSeconds(passes), "1/s")
	put("join_p50_us", us(lat[kJoin], 0.5), "us")
	put("join_p95_us", us(lat[kJoin], 0.95), "us")
	put("restore_p50_us", us(lat[kRestore], 0.5), "us")
	put("restore_p95_us", us(lat[kRestore], 0.95), "us")
	put("live_heap_mb", heapMB, "MB")
	put("rd_mean", ref.rdSum/float64(ref.rdN), "delay")
	put("delay_stretch", ss.res.stretch, "ratio")

	var rawSec []float64
	for _, p := range passes {
		rawSec = append(rawSec, p.rawSecs)
	}
	ss.logf("%s seed %d scale %s: %d ops/pass, %d timed passes in %.1fs; samples: join %d, restore %d, joinbatch %d, leave %d, repair %d, get %d",
		opt.workload, opt.seed, opt.scale, s.nOps, len(passes), time.Since(start).Seconds(),
		len(lat[kJoin]), len(lat[kRestore]), len(lat[kJoinBatch]), len(lat[kLeave]), len(lat[kRepair]), len(lat[kGet]))
	ss.logf("  load: one process, %d closed-loop client(s), GOMAXPROCS %d, loopback only", maxLanes(s), runtime.GOMAXPROCS(0))
	ss.logf("  as measured: join p50 %.1f p95 %.1f us, restore p50 %.1f p95 %.1f us, set-up %.3fs, pass %.3fs",
		us(rawLat[kJoin], 0.5), us(rawLat[kJoin], 0.95), us(rawLat[kRestore], 0.5), us(rawLat[kRestore], 0.95),
		median(setupsRaw), median(rawSec))
	ss.logf("  calibration: factor p50 %.3f, spread %.3f, burst share p50 %.3f, %d of %d slices unsteady",
		median(ss.cal.factors), spread(ss.cal.factors), median(ss.cal.bursts), ss.cal.unsteady, len(ss.cal.factors))
	ss.logf("  digest %#x state %#x", ref.digest, ref.state)
	rep.diag = map[string]float64{
		"raw_join_p50_us": us(rawLat[kJoin], 0.5), "raw_join_p95_us": us(rawLat[kJoin], 0.95),
		"raw_restore_p50_us": us(rawLat[kRestore], 0.5), "raw_restore_p95_us": us(rawLat[kRestore], 0.95),
		"raw_setup_s": median(setupsRaw), "raw_ops_per_s": float64(s.nOps) / median(rawSec),
		"passes": float64(len(passes)), "cal_factor_p50": median(ss.cal.factors), "cal_factor_spread": spread(ss.cal.factors),
		"cal_slices": float64(len(ss.cal.factors)), "cal_slices_unsteady": float64(ss.cal.unsteady), "cal_burst_share": median(ss.cal.bursts),
	}
	return rep, nil
}

// spread is the interquartile range of xs over its median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / median(xs)
}

func maxLanes(s *schedule) int {
	n := 1
	for _, seg := range s.segments() {
		n = max(n, len(seg))
	}
	return n
}

func pinKey(opt options) string {
	return fmt.Sprintf("%s/%s/%d", opt.workload, opt.scale, opt.seed)
}
