package smrp

import (
	"smrp/internal/faultisolation"
	"smrp/internal/protect"
	"smrp/internal/workload"
)

// Preplanned-protection aliases (the related-work baselines of §2).
type (
	// RedundantTrees is a Médard-style red/blue tree pair: any single
	// link/node failure leaves every member attached via one tree.
	RedundantTrees = protect.RedundantTrees
	// DependableSession manages Han & Shin-style primary/backup channels.
	DependableSession = protect.DependableSession
	// DependableConnection is one receiver's primary/backup pair.
	DependableConnection = protect.DependableConnection
	// FailoverOutcome describes how a preplanned channel weathers a failure.
	FailoverOutcome = protect.FailoverOutcome
)

// Re-exported failover outcomes.
const (
	PrimaryUnaffected = protect.PrimaryUnaffected
	SwitchedToBackup  = protect.SwitchedToBackup
	BothChannelsDown  = protect.BothChannelsDown
)

// BuildRedundantTrees constructs the red/blue pair on a biconnected network.
func BuildRedundantTrees(g *Network, source NodeID) (*RedundantTrees, error) {
	return protect.BuildRedundantTrees(g, source)
}

// NewDependableSession creates a primary/backup channel manager.
func NewDependableSession(g *Network, source NodeID) (*DependableSession, error) {
	return protect.NewDependableSession(g, source)
}

// Fault-isolation aliases (reference [1]'s role in the hierarchical
// architecture: find which domain a failure is in from reachability alone).
type (
	// FaultObservation records which members still receive data.
	FaultObservation = faultisolation.Observation
	// FaultSuspect is one candidate failure location.
	FaultSuspect = faultisolation.Suspect
)

// IsolateFault infers the failed tree link(s) from an observation.
func IsolateFault(t *Tree, obs FaultObservation) ([]FaultSuspect, error) {
	return faultisolation.Isolate(t, obs)
}

// ObserveFailure produces the observation a failure mask would cause.
func ObserveFailure(t *Tree, mask *Mask) FaultObservation {
	return faultisolation.ObserveFailure(t, mask)
}

// NewFaultObservation builds an observation from the reachable members.
func NewFaultObservation(reachable []NodeID) FaultObservation {
	return faultisolation.NewObservation(reachable)
}

// Workload aliases (membership churn schedules).
type (
	// ChurnConfig parameterizes churn generation.
	ChurnConfig = workload.Config
	// ChurnSchedule is a time-ordered join/leave schedule.
	ChurnSchedule = workload.Schedule
	// ChurnEvent is one membership change.
	ChurnEvent = workload.Event
)

// GenerateChurn builds a deterministic churn schedule.
func GenerateChurn(cfg ChurnConfig, rng *RNG) (*ChurnSchedule, error) {
	return workload.Generate(cfg, rng)
}
