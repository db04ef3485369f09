package experiment

import (
	"context"
	"fmt"
	"strings"

	"smrp/internal/eventsim"
	"smrp/internal/failure"
	"smrp/internal/metrics"
	"smrp/internal/protocol"
	"smrp/internal/runner"
	"smrp/internal/topology"
)

// LatencyResult reproduces the paper's motivating claim at the message
// level: service-restoration latency via local detours vs. the
// reconvergence-gated global detour, measured on the event-driven protocol
// implementations.
type LatencyResult struct {
	Scenarios     int
	SMRPLatency   metrics.Summary
	SPFLatency    metrics.Summary
	Speedup       float64 // mean SPF latency / mean SMRP latency
	SMRPMessages  float64 // mean control messages per scenario
	SPFMessages   float64
	Unrecoverable int
}

// Render prints the comparison.
func (r *LatencyResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Restoration latency (event-driven protocols, %d scenarios)\n", r.Scenarios)
	fmt.Fprintf(&b, "  %-22s %-24s %-10s\n", "protocol", "latency (mean±ci95)", "msgs/run")
	fmt.Fprintf(&b, "  %-22s %8.3f ± %-13.3f %-10.1f\n", "SMRP (local detour)",
		r.SMRPLatency.Mean, r.SMRPLatency.CI95, r.SMRPMessages)
	fmt.Fprintf(&b, "  %-22s %8.3f ± %-13.3f %-10.1f\n", "SPF (global detour)",
		r.SPFLatency.Mean, r.SPFLatency.CI95, r.SPFMessages)
	fmt.Fprintf(&b, "  speedup = %.2fx, unrecoverable scenarios skipped = %d\n",
		r.Speedup, r.Unrecoverable)
	return b.String()
}

// latencyRun is one trial's measurement (ok=false when the victim was
// unrecoverable in either protocol).
type latencyRun struct {
	ok         bool
	sLat, gLat float64
	sMsg, gMsg float64
}

// RunLatency builds paired protocol instances over random topologies, drives
// member joins, injects each protocol's worst-case failure for a victim
// member, and measures restoration latency. Runs execute on the parallel
// runner and fold in run order (bit-identical for any worker count).
func RunLatency(ctx context.Context, rc RunConfig, runs int) (*LatencyResult, error) {
	base := DefaultBase()
	pcfg := protocol.DefaultConfig()
	pcfg.SMRP = base.SMRP

	out := &LatencyResult{}
	runResults, err := runner.Map(ctx, rc.pool(), runs, func(_ context.Context, t runner.Trial) (latencyRun, error) {
		r := t.Index
		rng := topology.NewRNG(rc.Seed + uint64(r)*7919)
		g, source, members, err := FlatTrial(base, rng)
		if err != nil {
			return latencyRun{}, err
		}
		// Reconvergence modeling re-runs Dijkstra from every LSA detector;
		// memoize them for this run's private topology.
		g.EnableSPFCache()
		smrp, err := protocol.NewSMRPInstance(g, source, pcfg)
		if err != nil {
			return latencyRun{}, err
		}
		spf, err := protocol.NewSPFInstance(g, source, pcfg)
		if err != nil {
			return latencyRun{}, err
		}
		for k, m := range members {
			at := eventsim.Time(k + 1)
			if err := smrp.ScheduleJoin(at, m); err != nil {
				return latencyRun{}, err
			}
			if err := spf.ScheduleJoin(at, m); err != nil {
				return latencyRun{}, err
			}
		}
		if err := smrp.Run(200); err != nil {
			return latencyRun{}, err
		}
		if err := spf.Run(200); err != nil {
			return latencyRun{}, err
		}

		victim := members[0]
		fS, err := failure.WorstCaseFor(smrp.Session().Tree(), victim)
		if err != nil {
			return latencyRun{}, err
		}
		fG, err := failure.WorstCaseFor(spf.Session().Tree(), victim)
		if err != nil {
			return latencyRun{}, err
		}
		if err := smrp.InjectFailure(300, fS); err != nil {
			return latencyRun{}, err
		}
		if err := spf.InjectFailure(300, fG); err != nil {
			return latencyRun{}, err
		}
		if err := smrp.Run(2000); err != nil {
			return latencyRun{}, err
		}
		if err := spf.Run(2000); err != nil {
			return latencyRun{}, err
		}

		var sv, gv *protocol.Restoration
		for _, rr := range smrp.Restorations() {
			if rr.Member == victim {
				r := rr
				sv = &r
			}
		}
		for _, rr := range spf.Restorations() {
			if rr.Member == victim {
				r := rr
				gv = &r
			}
		}
		if sv == nil || gv == nil {
			return latencyRun{}, nil
		}
		return latencyRun{
			ok:   true,
			sLat: float64(sv.Latency),
			gLat: float64(gv.Latency),
			sMsg: float64(smrp.Network().Sent),
			gMsg: float64(spf.Network().Sent),
		}, nil
	})
	if err != nil {
		return nil, err
	}

	var sLat, gLat metrics.Sample
	var sMsg, gMsg float64
	for _, lr := range runResults {
		if !lr.ok {
			out.Unrecoverable++
			continue
		}
		sLat.Add(lr.sLat)
		gLat.Add(lr.gLat)
		sMsg += lr.sMsg
		gMsg += lr.gMsg
		out.Scenarios++
	}
	if out.Scenarios == 0 {
		return nil, fmt.Errorf("experiment: no recoverable latency scenarios out of %d", runs)
	}
	if out.SMRPLatency, err = sLat.Summarize(); err != nil {
		return nil, err
	}
	if out.SPFLatency, err = gLat.Summarize(); err != nil {
		return nil, err
	}
	if out.SMRPLatency.Mean > 0 {
		out.Speedup = out.SPFLatency.Mean / out.SMRPLatency.Mean
	}
	out.SMRPMessages = sMsg / float64(out.Scenarios)
	out.SPFMessages = gMsg / float64(out.Scenarios)
	return out, nil
}
