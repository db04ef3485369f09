package smrp

import (
	"context"

	"smrp/internal/eventsim"
	"smrp/internal/experiment"
	"smrp/internal/hierarchy"
	"smrp/internal/metrics"
	"smrp/internal/protocol"
	"smrp/internal/routing"
	"smrp/internal/topology"
	"smrp/internal/trace"
)

// Tracing aliases: structured event logs for protocol runs.
type (
	// TraceLog records protocol events (joins, failures, recoveries) with
	// virtual timestamps; install via SMRPInstance.SetTrace.
	TraceLog = trace.Log
	// TraceEntry is one recorded protocol event.
	TraceEntry = trace.Entry
)

// NewTraceLog returns an event log bounded to capacity entries (0 =
// unbounded).
func NewTraceLog(capacity int) *TraceLog { return trace.New(capacity) }

// Event-driven protocol aliases (the ns2-equivalent message-level layer).
type (
	// SimTime is virtual simulation time (edge-weight units).
	SimTime = eventsim.Time
	// ProtocolConfig parameterizes the message-level protocol instances.
	ProtocolConfig = protocol.Config
	// SMRPInstance is an event-driven SMRP session.
	SMRPInstance = protocol.SMRPInstance
	// SPFInstance is an event-driven SPF baseline session.
	SPFInstance = protocol.SPFInstance
	// Restoration records one member's recovery timing.
	Restoration = protocol.Restoration
	// RoutingConfig models unicast reconvergence timing.
	RoutingConfig = routing.Config
)

// DefaultProtocolConfig returns the message-level protocol defaults.
func DefaultProtocolConfig() ProtocolConfig { return protocol.DefaultConfig() }

// NewSMRPInstance builds an event-driven SMRP protocol instance.
func NewSMRPInstance(net *Network, source NodeID, cfg ProtocolConfig) (*SMRPInstance, error) {
	return protocol.NewSMRPInstance(net, source, cfg)
}

// NewSPFInstance builds an event-driven SPF baseline instance.
func NewSPFInstance(net *Network, source NodeID, cfg ProtocolConfig) (*SPFInstance, error) {
	return protocol.NewSPFInstance(net, source, cfg)
}

// Hierarchical recovery aliases (§3.3.3).
type (
	// DomainRecoveryReport describes a domain-confined recovery.
	DomainRecoveryReport = hierarchy.RecoveryReport
	// NLevelSession runs SMRP per recovery domain over an N-level domain
	// tree, confining failures to the domain(s) where they occur.
	NLevelSession = hierarchy.NLevelSession
	// NLevelTopology is an N-level hierarchical network.
	NLevelTopology = topology.NLevelTopology
	// NLevelConfig parameterizes the N-level generator.
	NLevelConfig = topology.NLevelConfig
)

// GenerateNLevel builds an N-level hierarchical network.
func GenerateNLevel(cfg NLevelConfig, seed uint64) (*NLevelTopology, error) {
	return topology.GenerateNLevel(cfg, topology.NewRNG(seed))
}

// DefaultNLevelConfig returns a 3-level hierarchy configuration.
func DefaultNLevelConfig() NLevelConfig { return topology.DefaultNLevelConfig() }

// NewNLevelSession builds an N-level hierarchical SMRP session.
func NewNLevelSession(t *NLevelTopology, src NodeID, cfg Config) (*NLevelSession, error) {
	return hierarchy.NewNLevel(t, src, cfg)
}

// Statistics aliases.
type (
	// MetricSample accumulates observations.
	MetricSample = metrics.Sample
	// MetricSummary is mean/std/CI95/min/max of a sample.
	MetricSummary = metrics.Summary
)

// Experiment-harness aliases: each Run* regenerates one piece of the
// paper's evaluation (see EXPERIMENTS.md for the index).
type (
	// ExperimentBase is the shared N/N_G/α/D_thresh setup.
	ExperimentBase = experiment.Base
	// Fig7Result is the local-vs-global detour scatter (§4.3.1).
	Fig7Result = experiment.Fig7Result
	// SweepResult is a Figure 8/9/10-style parameter sweep.
	SweepResult = experiment.SweepResult
	// AblationResult is the design-ablation study.
	AblationResult = experiment.AblationResult
	// LatencyResult is the message-level restoration-latency comparison.
	LatencyResult = experiment.LatencyResult
	// HierResult is the hierarchical-recovery comparison.
	HierResult = experiment.HierResult
	// ChurnResult is the reshaping-under-churn study.
	ChurnResult = experiment.ChurnResult
	// NLevelResult is the N-level recovery-scope study.
	NLevelResult = experiment.NLevelResult
	// ChaosResult is the multi-failure chaos harness summary.
	ChaosResult = experiment.ChaosResult
	// StrategiesResult is the three-way recovery-strategy testbed summary.
	StrategiesResult = experiment.StrategiesResult
	// StrategyArm is one strategy's aggregate outcome within a
	// StrategiesResult.
	StrategyArm = experiment.StrategyArm
	// ThroughputResult is the sharded session-throughput study summary.
	ThroughputResult = experiment.ThroughputResult
	// MegascaleResult is the flat-vs-hierarchical scaling study summary.
	MegascaleResult = experiment.MegascaleResult
	// MultigroupResult is the thousands-of-groups shared-topology study
	// summary.
	MultigroupResult = experiment.MultigroupResult
)

// RunConfig is how a study executes: the base RNG seed and the number of
// parallel trial workers (values < 1 select GOMAXPROCS). Results depend on
// Seed alone and are bit-identical for any worker count; only wall-clock
// time changes.
type RunConfig = experiment.RunConfig

// RunFig7 reproduces Figure 7 (5 topologies, default parameters). A
// cancelled ctx stops trial dispatch promptly and returns ctx.Err(); the
// same contract holds for every Run* study below.
func RunFig7(ctx context.Context, rc RunConfig) (*Fig7Result, error) {
	return experiment.RunFig7(ctx, rc)
}

// RunFig8 reproduces Figure 8 (the D_thresh sweep).
func RunFig8(ctx context.Context, rc RunConfig, nTopo, nSets int) (*SweepResult, error) {
	return experiment.RunFig8(ctx, rc, nTopo, nSets)
}

// RunFig9 reproduces Figure 9 (the α / node-degree sweep).
func RunFig9(ctx context.Context, rc RunConfig, nTopo, nSets int) (*SweepResult, error) {
	return experiment.RunFig9(ctx, rc, nTopo, nSets)
}

// RunFig10 reproduces Figure 10 (the group-size sweep).
func RunFig10(ctx context.Context, rc RunConfig, nTopo, nSets int) (*SweepResult, error) {
	return experiment.RunFig10(ctx, rc, nTopo, nSets)
}

// RunDegree10 reproduces the §4.3.3 in-text high-connectivity study.
func RunDegree10(ctx context.Context, rc RunConfig, nTopo, nSets int) (*SweepResult, error) {
	return experiment.RunDegree10(ctx, rc, nTopo, nSets)
}

// RunAblations executes the design ablations from DESIGN.md.
func RunAblations(ctx context.Context, rc RunConfig, nTopo, nSets int) (*AblationResult, error) {
	return experiment.RunAblations(ctx, rc, nTopo, nSets)
}

// RunLatency measures restoration latency on the event-driven protocols.
func RunLatency(ctx context.Context, rc RunConfig, runs int) (*LatencyResult, error) {
	return experiment.RunLatency(ctx, rc, runs)
}

// RunHierarchy compares hierarchical and flat recovery scope.
func RunHierarchy(ctx context.Context, rc RunConfig, runs int) (*HierResult, error) {
	return experiment.RunHierarchy(ctx, rc, runs)
}

// RunChurn studies reshaping under membership churn (§3.2.3).
func RunChurn(ctx context.Context, rc RunConfig, runs int) (*ChurnResult, error) {
	return experiment.RunChurn(ctx, rc, runs)
}

// RunNLevel measures recovery-scope shrink under N-level hierarchies.
func RunNLevel(ctx context.Context, rc RunConfig, runs int) (*NLevelResult, error) {
	return experiment.RunNLevel(ctx, rc, runs)
}

// RunChaos replays seeded multi-failure schedules (overlapping failures,
// SRLG bursts, full partitions, repairs) through both the algorithmic
// session and the message-level protocol, checking a structural-invariant
// oracle after every event. A healthy build reports zero violations.
func RunChaos(ctx context.Context, rc RunConfig, trials int) (*ChaosResult, error) {
	return experiment.RunChaos(ctx, rc, trials)
}

// RunStrategies plays seeded chaos schedules three-way — SMRP local detours
// vs MRC backup configurations vs Bhosle–Gonzalez precomputed detours —
// through the RecoveryStrategy seam, checking the chaos invariant oracle
// after every event for every arm, and reports recovery distance,
// disruption, settled-node work (precompute vs recovery time) and
// precomputed-state bytes per strategy.
func RunStrategies(ctx context.Context, rc RunConfig, trials int) (*StrategiesResult, error) {
	return experiment.RunStrategies(ctx, rc, trials)
}

// RunThroughput advances many independent sessions concurrently on one
// shared topology with one shared SPF cache: each shard admits a flash
// crowd through the batched join path (against a one-at-a-time reference
// twin) and then plays a high-rate join/leave churn schedule.
func RunThroughput(ctx context.Context, rc RunConfig, sessions int) (*ThroughputResult, error) {
	return experiment.RunThroughput(ctx, rc, sessions)
}

// RunMegascale compares flat against N-level hierarchical session
// architecture at growing network sizes: same membership and branch-cut
// recovery schedule on both arms, reported in deterministic settled-node
// counters and exact per-component byte accounting (never wall-clock). The
// headline: per-recovery-event work in the hierarchy is bounded by the
// domain size while the flat arm's grows with N. hierOnly skips the flat
// control arm, which is what admits sizes up to N=10⁶ within a CI-sized
// budget (the hierarchy's per-event work stays domain-bounded at any N).
func RunMegascale(ctx context.Context, rc RunConfig, sizes []int, groups int, hierOnly bool) (*MegascaleResult, error) {
	return experiment.RunMegascale(ctx, rc, sizes, groups, hierOnly)
}

// RunMultigroup drives thousands of concurrent multicast groups — one
// sparse-storage session each, membership sizes on a Zipf popularity profile
// — over ONE shared megascale topology and ONE shared SPF cache, reporting
// deterministic per-group standing bytes, settled work per recovery event,
// and an in-study dense-twin comparison.
func RunMultigroup(ctx context.Context, rc RunConfig, groups, maxMembers, nodes int) (*MultigroupResult, error) {
	return experiment.RunMultigroup(ctx, rc, groups, maxMembers, nodes)
}

// DefaultExperimentBase returns the paper's default evaluation setup.
func DefaultExperimentBase() ExperimentBase { return experiment.DefaultBase() }
