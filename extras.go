package smrp

import (
	"smrp/internal/eventsim"
	"smrp/internal/hierarchy"
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
