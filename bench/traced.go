package main

import (
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"

	"smrp/internal/graph"
	"smrp/internal/metrics"
)

// armRun is one way the traced run drives the schedule, and what its passes
// produced.
type armRun struct {
	name   string
	d      driver
	mode   passMode
	serial bool
	probes *prober
	tr     *tracer
	passes []*passResult
	spf    metrics.SPFStats
}

// lat is quantile q, in microseconds at reference speed, of the arm's
// per-operation median latencies of one kind. 0 when the arm has none.
func (a *armRun) lat(s *schedule, k opKind, q float64) float64 {
	if a == nil || len(a.passes) == 0 {
		return 0
	}
	return quantile(s.byKind(perOpMedians(a.passes, s.nOps, true))[k], q) / 1e3
}

func (a *armRun) opsPerS(s *schedule) float64 {
	if a == nil || len(a.passes) == 0 {
		return 0
	}
	return float64(s.nOps) / passSeconds(a.passes)
}

func rusageCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runTraced measures the per-layer ledger: the schedule runs through the
// measured driver with and without spans, through each lower layer the
// workload has an arm for, and with boundary replays around the operations
// of the arm that reaches session state directly.
func runTraced(opt options) (*report, error) {
	ss, err := begin(opt)
	if err != nil {
		return nil, err
	}
	e, s := ss.env, ss.sched
	defer e.close()

	tr := newTracer(opt.workload)
	root := tr.begin("workload", 0, 0)

	// Arms. "plain" and "traced" are the measured driver without and with
	// spans: their ratio is what tracing costs. The probed arm is the one
	// with direct access to session state.
	plain := &armRun{name: "plain", d: e.primary, mode: timedPass}
	traced := &armRun{name: "traced", d: e.primary, mode: tracedPass, tr: tr}
	arms := []*armRun{plain, traced}
	byName := map[string]*armRun{}
	probed := traced
	for _, a := range e.arms {
		ar := &armRun{name: a.name, d: a.d, mode: timedPass}
		if _, ok := a.d.(oracle); ok {
			ar.mode, ar.tr, ar.serial = tracedPass, tr, true
			probed = ar
		}
		arms = append(arms, ar)
		byName[a.name] = ar
	}
	if e.hier != nil {
		// The same hierarchy, with restores sent past its attribution.
		direct := *e.hier
		direct.bypass = true
		bypass := &armRun{name: "bypass", d: &direct, mode: timedPass}
		arms = append(arms, bypass)
		byName["bypass"] = bypass
	}
	if o, ok := probed.d.(oracle); ok {
		probed.probes = newProber(o, tr, s, e.hier != nil)
	}

	rep := &report{Correct: true, Metrics: map[string]metric{}, digest: ss.res.digest}
	fail := func(format string, a ...interface{}) {
		rep.Correct = false
		ss.logf("INCORRECT: "+format, a...)
	}

	// Standing-point readings, taken once in the probed arm.
	var coreBytes, treeBytes, treeNodes float64
	var reshapeNS []float64
	standing := func() error {
		o := probed.d.(oracle)
		coreBytes, treeBytes, treeNodes = 0, 0, 0
		for _, cs := range o.flat() {
			coreBytes += float64(cs.MemoryFootprint())
			treeBytes += float64(cs.Tree().MemoryFootprint())
			treeNodes += float64(cs.Tree().NumNodes())
		}
		return nil
	}
	// Condition II on what the pass built: timed at the end, where moving
	// members no longer changes what the schedule sees.
	reshape := func(check func(*passResult) error) func(*passResult) error {
		return func(res *passResult) error {
			if err := check(res); err != nil {
				return err
			}
			if e.cfg.PeriodicReshape {
				for _, cs := range probed.d.(oracle).flat() {
					t := time.Now()
					cs.ReshapeAll()
					reshapeNS = append(reshapeNS, float64(time.Since(t).Nanoseconds()))
				}
			}
			return nil
		}
	}

	var rt runtimeTotals
	start := time.Now()
	for round := 0; round < minPasses || time.Since(start).Seconds() < opt.seconds; round++ {
		for _, a := range arms {
			e.flushCaches()
			r := &runner{sched: s, cal: ss.cal, tr: a.tr, probes: a.probes, rootSpan: root, sliceTarget: sliceTarget}
			opts := passOpts{atEnd: ss.atEnd(a.d), serial: a.serial}
			if a == probed && a.probes != nil {
				opts.standing = standing
				if opts.atEnd != nil {
					opts.atEnd = reshape(opts.atEnd)
				}
			}
			run := func() error {
				res, err := r.pass(a.d, a.mode, len(a.passes)+1, opts)
				if err != nil {
					return fmt.Errorf("arm %s: %w", a.name, err)
				}
				a.passes = append(a.passes, res)
				return nil
			}
			if a == plain {
				err = rt.around(s.nOps, run)
			} else {
				err = run()
			}
			if err != nil {
				return nil, err
			}
			res := a.passes[len(a.passes)-1]
			a.spf = addSPF(a.spf, res.spf)
			rep.Attempted += s.nOps
			rep.Failed += res.failed
			if res.failed > 0 {
				fail("arm %s: %d operations failed, first: %v", a.name, res.failed, res.firstErr)
			}
			if res.digest != ss.res.digest {
				fail("arm %s: outputs %#x differ from direct calls %#x", a.name, res.digest, ss.res.digest)
			}
		}
	}
	tr.end(root)
	return finishTraced(ss, rep, tr, arms, byName, probed, standingBytes{coreBytes, treeBytes, treeNodes}, reshapeNS, &rt)
}

type standingBytes struct{ core, tree, treeNodes float64 }

// runtimeTotals sums what the Go runtime and the kernel charged the process
// while the plain arm's passes ran.
type runtimeTotals struct {
	mallocs, bytes, gcs, pauseNS uint64
	cpu                          time.Duration
	ops                          int
}

func (t *runtimeTotals) around(ops int, f func() error) error {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	cpu0 := rusageCPU()
	err := f()
	t.cpu += rusageCPU() - cpu0
	runtime.ReadMemStats(&b)
	t.mallocs += b.Mallocs - a.Mallocs
	t.bytes += b.TotalAlloc - a.TotalAlloc
	t.gcs += uint64(b.NumGC - a.NumGC)
	t.pauseNS += b.PauseTotalNs - a.PauseTotalNs
	t.ops += ops
	return err
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finishTraced turns what the arms and probes recorded into the per-layer
// metrics, prints the cost trees and writes the spans.
func finishTraced(ss *session, rep *report, tr *tracer, arms []*armRun, byName map[string]*armRun, probed *armRun,
	standing standingBytes, reshapeNS []float64, rt *runtimeTotals) (*report, error) {
	e, s := ss.env, ss.sched
	plain, traced := arms[0], arms[1]
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0 // a layer the workload does not reach reads 0
	}
	p := probed.probes
	if p == nil {
		p = &prober{work: map[string]float64{}, ns: map[string][]float64{}, cnt: map[string][]float64{}}
	}
	var probedOps float64
	for _, n := range p.ops {
		probedOps += float64(n)
	}

	// graph
	m["pqueue.pushpop_ns"] = pqueuePushPopNS() / median(ss.cal.factors)
	m["graph.sweep_absorb_us"] = median(p.ns["graph.sweep_absorb"]) / 1e3
	m["graph.sweep_settled_per_join"] = mean(p.cnt["graph.sweep_settled"])
	m["graph.nearest_us"] = median(p.ns["graph.nearest"]) / 1e3
	m["graph.nearest_settled"] = mean(p.cnt["graph.nearest_settled"])
	pg, srcs := probeGraph(e, s)
	hit, miss, delta := spfProbe(pg, srcs)
	f := median(ss.cal.factors)
	m["graph.spf_hit_ns"] = hit / f
	m["graph.spf_miss_us"] = miss / f / 1e3
	m["graph.spf_delta_us"] = delta / f / 1e3
	m["graph.spf_hit_ratio"] = ratio(float64(probed.spf.CacheHits), float64(probed.spf.CacheHits+probed.spf.CacheMisses))
	ops := float64(len(probed.passes) * s.nOps)
	m["graph.spf_full_runs_per_kop"] = 1e3 * ratio(float64(probed.spf.FullRuns), ops)
	m["graph.spf_delta_runs_per_kop"] = 1e3 * ratio(float64(probed.spf.DeltaRuns), ops)
	m["graph.settled_per_op"] = ratio(float64(probed.spf.NodesSettled), ops)
	m["graph.mask_fold_ns"] = maskFoldNS(pg) / f
	fs, err := freezeSeconds(pg)
	if err != nil {
		return nil, err
	}
	m["graph.freeze_s"] = fs / f
	for _, g := range e.graphs {
		m["graph.bytes"] += float64(g.MemoryFootprint())
		m["topology.nodes"] += float64(g.NumNodes())
		m["topology.edges"] += float64(g.NumEdges())
	}
	m["topology.generate_s"] = e.timing["topology.generate_s"] / f

	// multicast
	m["multicast.graft_leave_ns"] = median(p.ns["multicast.graft_leave"])
	m["multicast.tree_nodes"] = standing.treeNodes
	m["multicast.bytes"] = standing.tree

	// core: the arm that calls flat sessions directly, or, under the
	// hierarchy, the replays on the domain's flat session.
	coreArm := probed
	if e.hier != nil {
		coreArm = nil
		m["core.join_us"] = median(p.ns["hierarchy.domain_join"]) / 1e3
		m["core.recover_us"] = byName["bypass"].lat(s, kRestore, 0.5)
	} else {
		m["core.join_us"] = coreArm.lat(s, kJoin, 0.5)
		m["core.recover_us"] = coreArm.lat(s, kRestore, 0.5)
		m["core.leave_us"] = coreArm.lat(s, kLeave, 0.5)
		m["core.repair_us"] = coreArm.lat(s, kRepair, 0.5)
		var perMember []float64
		if len(coreArm.passes) > 0 {
			lat := perOpMedians(coreArm.passes, s.nOps, true)
			for _, seg := range s.segments() {
				for _, lane := range seg {
					for _, o := range lane {
						if o.kind == kJoinBatch {
							perMember = append(perMember, lat[o.idx]/float64(len(o.nodes)))
						}
					}
				}
			}
		}
		m["core.joinbatch_us_per_member"] = median(perMember) / 1e3
	}
	m["core.reshape_us"] = median(reshapeNS) / f / 1e3
	m["core.candidates_per_join"] = ratio(p.work["candidates"], p.work["joined"])
	m["core.enum_settled_per_join"] = ratio(p.work["enum_settled"], p.work["joined"])
	m["core.heal_settled_per_restore"] = ratio(p.work["heal_settled"], float64(p.ops[kRestore]))
	m["core.shr_updates_per_op"] = ratio(p.work["shr_updates"], probedOps)
	m["core.reshapes_per_op"] = ratio(p.work["reshapes"], probedOps)
	m["core.bytes"] = standing.core
	below := m["graph.spf_hit_ns"]/1e3 + m["graph.sweep_absorb_us"] + m["multicast.graft_leave_ns"]/1e3
	m["core.residue_share"] = ratio(m["core.join_us"]-below, m["core.join_us"])

	// hierarchy
	if e.hier != nil {
		m["hierarchy.new_s"] = e.timing["hierarchy.new_s"] / f
		m["hierarchy.join_us"] = traced.lat(s, kJoin, 0.5)
		m["hierarchy.recover_us"] = traced.lat(s, kRestore, 0.5)
		m["hierarchy.leave_us"] = traced.lat(s, kLeave, 0.5)
		m["hierarchy.settled_per_restore"] = m["core.heal_settled_per_restore"]
		m["hierarchy.subgraph_bytes"] = float64(e.hier.hs.SubgraphBytes())
		m["hierarchy.self_share"] = 1 - ratio(m["core.join_us"]+m["core.recover_us"], m["hierarchy.join_us"]+m["hierarchy.recover_us"])
	}

	// server
	if e.http != nil {
		m["server.http_join_us"] = traced.lat(s, kJoin, 0.5)
		m["server.actor_join_us"] = byName["actor"].lat(s, kJoin, 0.5)
		m["server.core_join_us"] = byName["core"].lat(s, kJoin, 0.5)
		m["server.http_self_us"] = m["server.http_join_us"] - m["server.actor_join_us"]
		m["server.mailbox_self_us"] = m["server.actor_join_us"] - m["server.core_join_us"]
		m["server.http_get_us"] = traced.lat(s, kGet, 0.5)
		m["server.fail_us"] = traced.lat(s, kRestore, 0.5)
		if m["server.batch_size_mean"], err = e.http.batchSizeMean(); err != nil {
			return nil, err
		}
		m["server.refused"] = float64(e.http.refused.Load())
	}

	// runtime, over the plain arm's passes
	m["runtime.allocs_per_op"] = ratio(float64(rt.mallocs), float64(rt.ops))
	m["runtime.bytes_per_op"] = ratio(float64(rt.bytes), float64(rt.ops))
	m["runtime.gc_cycles"] = float64(rt.gcs)
	m["runtime.gc_pause_ms"] = float64(rt.pauseNS) / 1e6
	m["runtime.cpu_us_per_op"] = ratio(float64(rt.cpu.Microseconds()), float64(rt.ops))

	// the instrument itself
	m["cal.factor_p50"] = f
	m["cal.factor_spread"] = spread(ss.cal.factors)
	m["cal.slices_unsteady"] = float64(ss.cal.unsteady)
	m["cal.burst_share"] = median(ss.cal.bursts)
	m["trace.overhead_ratio"] = ratio(traced.opsPerS(s), plain.opsPerS(s))

	for _, d := range perLayer {
		rep.Metrics[d.name] = metric{m[d.name], d.unit}
	}
	if n := p.work["replay_errors"]; n > 0 {
		rep.Correct = false
		ss.logf("INCORRECT: %v boundary replays failed", n)
	}

	ss.logf("%s seed %d scale %s, traced: %d ops/pass; passes per arm:", ss.opt.workload, ss.opt.seed, ss.opt.scale, s.nOps)
	for _, a := range arms {
		ss.logf("  %-7s %d passes, %.0f ops/s, join p50 %.1f us, restore p50 %.1f us", a.name, len(a.passes), a.opsPerS(s), a.lat(s, kJoin, 0.5), a.lat(s, kRestore, 0.5))
	}
	costTrees(ss, m)
	if ss.opt.traceDir != "" {
		path, err := tr.write(ss.opt.traceDir, ss.opt.seed)
		if err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		ss.logf("  %d spans (%d dropped) written to %s", len(tr.spans), tr.dropped, path)
	}
	return rep, nil
}

// probeGraph picks the graph and the sources the SPF probes run on: where
// the first session lives, and every session source on that graph (the
// domain's own root under a hierarchy).
func probeGraph(e *env, s *schedule) (*graph.Graph, []graph.NodeID) {
	if e.hier != nil {
		m := s.admitted[0][0]
		cs, _, err := e.hier.session(0, m)
		if err == nil {
			return cs.Graph(), []graph.NodeID{cs.Tree().Source()}
		}
	}
	g := e.graphs[0]
	if len(e.graphs) > 1 {
		return g, s.sources[:1]
	}
	srcs := append([]graph.NodeID(nil), s.sources...)
	slices.Sort(srcs)
	if len(srcs) > 16 {
		srcs = srcs[:16]
	}
	return g, srcs
}

// costTrees prints, for a join and a restore, what the operation cost and
// how much of that the layers below account for.
func costTrees(ss *session, m map[string]float64) {
	line := func(indent int, name string, us, of float64) {
		ss.logf("  %*s%-28s %10.2f us  %5.1f%%", indent, "", name, us, 100*ratio(us, of))
	}
	e := ss.env
	join, restore := m["core.join_us"], m["core.recover_us"]
	top, topJoin, topRestore := "core", join, restore
	switch {
	case e.http != nil:
		top, topJoin, topRestore = "server(http)", m["server.http_join_us"], m["server.fail_us"]
	case e.hier != nil:
		top, topJoin, topRestore = "hierarchy", m["hierarchy.join_us"], m["hierarchy.recover_us"]
	}
	ss.logf("  cost of a join (median, reference speed):")
	line(2, top+".join", topJoin, topJoin)
	indent := 4
	if e.http != nil {
		line(4, "server.http self", m["server.http_self_us"], topJoin)
		line(4, "server.mailbox self", m["server.mailbox_self_us"], topJoin)
	}
	if top != "core" {
		line(4, "core.join", join, topJoin)
		indent = 6
	}
	line(indent, "graph.spf_hit", m["graph.spf_hit_ns"]/1e3, topJoin)
	line(indent, "graph.sweep_absorb", m["graph.sweep_absorb_us"], topJoin)
	line(indent, "multicast.graft_leave", m["multicast.graft_leave_ns"]/1e3, topJoin)
	line(indent, "core self (residue)", m["core.residue_share"]*join, topJoin)
	if e.hier != nil {
		line(4, "hierarchy self (residue)", topJoin-join, topJoin)
	}
	ss.logf("  cost of a restore (median, reference speed):")
	line(2, top+".restore", topRestore, topRestore)
	if top != "core" {
		line(4, top+" self (residue)", topRestore-restore, topRestore)
		line(4, "core.recover", restore, topRestore)
	}
	line(indent, "graph.nearest (one member)", m["graph.nearest_us"], topRestore)
	line(indent, "core self and further sweeps", restore-m["graph.nearest_us"], topRestore)
}
