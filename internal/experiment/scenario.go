// Package experiment regenerates the paper's evaluation (§4): scenario
// generation over Waxman topologies, paired SMRP-vs-SPF measurement of
// recovery distance, end-to-end delay and tree cost under per-member
// worst-case failures, and the runners for Figures 7–10, the in-text
// degree-10 study, and the design ablations.
package experiment

import (
	"errors"
	"fmt"

	"smrp/internal/core"
	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/metrics"
	"smrp/internal/spfbase"
	"smrp/internal/topology"
)

// Base holds the parameters shared by every run of an experiment:
// the paper's N, N_G, α (with fixed β) and the SMRP configuration.
type Base struct {
	N     int     // network size (paper: 100)
	NG    int     // multicast group size (paper: 30)
	Alpha float64 // Waxman α (paper: 0.2)
	Beta  float64 // Waxman β (fixed)
	SMRP  core.Config
}

// DefaultBase returns the paper's default setup: N=100, N_G=30, α=0.2,
// D_thresh=0.3.
func DefaultBase() Base {
	return Base{
		N:     100,
		NG:    30,
		Alpha: 0.2,
		Beta:  topology.DefaultBeta,
		SMRP:  core.DefaultConfig(),
	}
}

// Validate reports whether the base is usable.
func (b Base) Validate() error {
	if err := b.checkSize(); err != nil {
		return err
	}
	return b.SMRP.Validate()
}

// checkSize reports whether a group of b.NG members and a source fit in b.N
// nodes: the part of Validate a trial draw needs.
func (b Base) checkSize() error {
	if b.N < 3 {
		return fmt.Errorf("experiment: N = %d too small", b.N)
	}
	if b.NG < 1 || b.NG >= b.N {
		return fmt.Errorf("experiment: NG = %d out of [1, N)", b.NG)
	}
	return nil
}

// Scenario is one concrete experiment instance: a topology plus a source and
// member set.
type Scenario struct {
	Topo      *graph.Graph
	Source    graph.NodeID
	Members   []graph.NodeID // join order
	AvgDegree float64
	// TopoSeed and MemberSeed identify the scenario for reproduction.
	TopoSeed, MemberSeed uint64
}

// GenScenarios produces nTopo topologies × nSets member sets (every member
// set re-drawn per topology), seeded deterministically from seed. This
// mirrors the paper's "ten network topologies … in each topology, ten
// different sets of multicast members".
func GenScenarios(b Base, nTopo, nSets int, seed uint64) ([]Scenario, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if nTopo < 1 || nSets < 1 {
		return nil, errors.New("experiment: need at least one topology and one member set")
	}
	out := make([]Scenario, 0, nTopo*nSets)
	for ti := 0; ti < nTopo; ti++ {
		topoSeed := seed + uint64(ti)*0x9E3779B9
		g, err := topology.Waxman(topology.WaxmanConfig{
			N:               b.N,
			Alpha:           b.Alpha,
			Beta:            b.Beta,
			EnsureConnected: true,
		}, topology.NewRNG(topoSeed))
		if err != nil {
			return nil, fmt.Errorf("experiment: topology %d: %w", ti, err)
		}
		deg := g.AvgDegree()
		for mi := 0; mi < nSets; mi++ {
			memberSeed := seed + 0xABCDEF + uint64(ti)*1000 + uint64(mi)
			rng := topology.NewRNG(memberSeed)
			ids := rng.Sample(b.N, b.NG+1)
			members := make([]graph.NodeID, b.NG)
			for i, id := range ids[1:] {
				members[i] = graph.NodeID(id)
			}
			out = append(out, Scenario{
				Topo:       g,
				Source:     graph.NodeID(ids[0]),
				Members:    members,
				AvgDegree:  deg,
				TopoSeed:   topoSeed,
				MemberSeed: memberSeed,
			})
		}
	}
	return out, nil
}

// FlatTrial draws one trial of the flat-Waxman studies from rng: a connected
// b.N-node topology, the source at its highest-degree node (the lowest ID on
// a tie), so that a single failure cannot cut the source off, and b.NG
// members other than the source, sampled from the same stream. A size
// Validate refuses is refused before anything is drawn; b.SMRP is not read.
func FlatTrial(b Base, rng *topology.RNG) (*graph.Graph, graph.NodeID, []graph.NodeID, error) {
	if err := b.checkSize(); err != nil {
		return nil, graph.Invalid, nil, err
	}
	g, err := topology.Waxman(topology.WaxmanConfig{
		N: b.N, Alpha: b.Alpha, Beta: b.Beta, EnsureConnected: true,
	}, rng)
	if err != nil {
		return nil, graph.Invalid, nil, err
	}
	source := graph.NodeID(0)
	for n := 1; n < g.NumNodes(); n++ {
		if g.Degree(graph.NodeID(n)) > g.Degree(source) {
			source = graph.NodeID(n)
		}
	}
	var members []graph.NodeID
	for _, id := range rng.Sample(b.N, b.NG+1) {
		if graph.NodeID(id) != source && len(members) < b.NG {
			members = append(members, graph.NodeID(id))
		}
	}
	return g, source, members, nil
}

// MemberObs is the paired per-member measurement of one scenario.
type MemberObs struct {
	Member graph.NodeID
	// Pre-failure end-to-end delays on each protocol's tree.
	DelaySPF, DelaySMRP float64
	// Worst-case recovery distances: the paper's headline comparison is
	// RDGlobalSPF (baseline) vs RDLocalSMRP (SMRP).
	RDGlobalSPF float64 // global detour on the SPF tree
	RDLocalSMRP float64 // local detour on the SMRP tree
	RDLocalSPF  float64 // ablation: local detour on the SPF tree
	// Recoverable is false when the worst-case failure partitions the
	// member from the source entirely (excluded from aggregates).
	Recoverable bool
}

// Result is the full measurement of one scenario.
type Result struct {
	Scenario  Scenario
	CostSPF   float64
	CostSMRP  float64
	Members   []MemberObs
	SMRPStats core.Stats
}

// Evaluate builds the SPF and SMRP trees for the scenario (same join order),
// applies one settling Condition-II reshaping pass when enabled, and
// measures every member under its per-tree worst-case failure.
func Evaluate(sc Scenario, smrpCfg core.Config) (*Result, error) {
	spf, err := spfbase.NewSession(sc.Topo, sc.Source)
	if err != nil {
		return nil, fmt.Errorf("experiment: spf session: %w", err)
	}
	smrp, err := core.NewSession(sc.Topo, sc.Source, smrpCfg)
	if err != nil {
		return nil, fmt.Errorf("experiment: smrp session: %w", err)
	}
	for _, m := range sc.Members {
		if err := spf.Join(m); err != nil {
			return nil, fmt.Errorf("experiment: spf join %d: %w", m, err)
		}
		if _, err := smrp.Join(m); err != nil {
			return nil, fmt.Errorf("experiment: smrp join %d: %w", m, err)
		}
	}
	if smrpCfg.PeriodicReshape {
		// One Condition-II settling pass, as the protocol's periodic timer
		// would perform after the joins complete.
		smrp.ReshapeAll()
	}

	res := &Result{Scenario: sc, SMRPStats: smrp.Stats()}
	if res.CostSPF, err = spf.Tree().Cost(); err != nil {
		return nil, err
	}
	if res.CostSMRP, err = smrp.Tree().Cost(); err != nil {
		return nil, err
	}

	for _, m := range sc.Members {
		obs := MemberObs{Member: m, Recoverable: true}
		if obs.DelaySPF, err = spf.Tree().DelayTo(m); err != nil {
			return nil, err
		}
		if obs.DelaySMRP, err = smrp.Tree().DelayTo(m); err != nil {
			return nil, err
		}

		// Worst case on the SPF tree → global detour (baseline) and the
		// local-detour ablation.
		fSPF, err := failure.WorstCaseFor(spf.Tree(), m)
		if err != nil {
			return nil, fmt.Errorf("experiment: worst case (spf) for %d: %w", m, err)
		}
		maskSPF := fSPF.Mask()
		_, rdG, errG := failure.GlobalDetour(spf.Tree(), maskSPF, m)
		_, rdLS, errLS := failure.LocalDetour(spf.Tree(), maskSPF, m)

		// Worst case on the SMRP tree → local detour (SMRP's recovery).
		fSMRP, err := failure.WorstCaseFor(smrp.Tree(), m)
		if err != nil {
			return nil, fmt.Errorf("experiment: worst case (smrp) for %d: %w", m, err)
		}
		_, rdL, errL := failure.LocalDetour(smrp.Tree(), fSMRP.Mask(), m)

		if errG != nil || errL != nil || errLS != nil {
			obs.Recoverable = false
		} else {
			obs.RDGlobalSPF = rdG
			obs.RDLocalSMRP = rdL
			obs.RDLocalSPF = rdLS
		}
		res.Members = append(res.Members, obs)
	}
	return res, nil
}

// Aggregate collects the paper's three relative metrics over a set of
// results: RD and delay are per-member samples, cost is per-scenario.
type Aggregate struct {
	RDRel    metrics.Sample // (RD_SPF − RD_SMRP) / RD_SPF, per member
	DelayRel metrics.Sample // (D_SMRP − D_SPF) / D_SPF, per member
	CostRel  metrics.Sample // (Cost_SMRP − Cost_SPF) / Cost_SPF, per scenario
	// RDRelLocalOnSPF supports the detour ablation: local detours on the
	// *SPF* tree against the same global baseline.
	RDRelLocalOnSPF metrics.Sample
	Unrecoverable   int // members excluded because no recovery path existed
	AvgDegree       metrics.Sample
}

// Accumulate folds one result into the aggregate.
func (a *Aggregate) Accumulate(r *Result) error {
	cr, err := metrics.RelativeCost(r.CostSPF, r.CostSMRP)
	if err != nil {
		return err
	}
	a.CostRel.Add(cr)
	a.AvgDegree.Add(r.Scenario.AvgDegree)
	for _, o := range r.Members {
		if dr, err := metrics.RelativeDelay(o.DelaySPF, o.DelaySMRP); err == nil {
			a.DelayRel.Add(dr)
		}
		if !o.Recoverable {
			a.Unrecoverable++
			continue
		}
		rr, err := metrics.RelativeRD(o.RDGlobalSPF, o.RDLocalSMRP)
		if err != nil {
			return err
		}
		a.RDRel.Add(rr)
		if rrl, err := metrics.RelativeRD(o.RDGlobalSPF, o.RDLocalSPF); err == nil {
			a.RDRelLocalOnSPF.Add(rrl)
		}
	}
	return nil
}

// Merge folds other into a, preserving other's internal sample order after
// a's (exactly associative, see metrics.Sample.Merge). Folding per-trial
// aggregates in trial order reproduces the sequential accumulation
// bit-for-bit.
func (a *Aggregate) Merge(other *Aggregate) {
	a.RDRel.Merge(&other.RDRel)
	a.DelayRel.Merge(&other.DelayRel)
	a.CostRel.Merge(&other.CostRel)
	a.RDRelLocalOnSPF.Merge(&other.RDRelLocalOnSPF)
	a.Unrecoverable += other.Unrecoverable
	a.AvgDegree.Merge(&other.AvgDegree)
}
