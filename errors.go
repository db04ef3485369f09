package smrp

import (
	"smrp/internal/core"
	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/hierarchy"
	"smrp/internal/protocol"
	"smrp/internal/topology"
)

// Sentinel errors re-exported from the internal layers. Every error returned
// by the public API wraps one of these (or a stdlib sentinel such as
// context.Canceled), so callers can branch with errors.Is instead of
// matching message text:
//
//	if _, err := sess.Join(n); errors.Is(err, smrp.ErrPartitioned) {
//	    // n is cut off by the accumulated failures; it is parked and will
//	    // be re-admitted automatically once a Repair restores a path.
//	}
var (
	// ErrUnknownNode is returned when an operation names a node outside the
	// network graph.
	ErrUnknownNode = graph.ErrUnknownNode
	// ErrUnknownEdge is returned when a link failure or repair names two
	// nodes no edge of the network graph joins (or a node and itself).
	ErrUnknownEdge = graph.ErrUnknownEdge
	// ErrAlreadyMember is returned when a join names an existing member.
	ErrAlreadyMember = core.ErrAlreadyMember
	// ErrNotMember is returned when a member operation names a non-member.
	ErrNotMember = core.ErrNotMember
	// ErrNoPath is returned when a joining node cannot reach the tree at all.
	ErrNoPath = core.ErrNoPath
	// ErrNoCandidate is returned when a joiner is reachable but every
	// candidate connection is excluded (wraps ErrNoPath).
	ErrNoCandidate = core.ErrNoCandidate
	// ErrPartitioned is returned when a member is genuinely cut off from the
	// source by the accumulated failures. The member is parked and
	// re-admitted automatically on Repair.
	ErrPartitioned = core.ErrPartitioned
	// ErrBadConfig is returned by session-configuration validation.
	ErrBadConfig = core.ErrBadConfig

	// ErrNotDisconnected is returned when recovery is requested for a member
	// the failure did not cut off.
	ErrNotDisconnected = failure.ErrNotDisconnected
	// ErrUnrecoverable is returned when no residual path can restore a
	// member.
	ErrUnrecoverable = failure.ErrUnrecoverable
	// ErrSourceFailed is returned when a failure takes down the multicast
	// source itself.
	ErrSourceFailed = failure.ErrSourceFailed
	// ErrMemberFailed is returned when recovery is requested for a member
	// that failed itself.
	ErrMemberFailed = failure.ErrMemberFailed
	// ErrBadSchedule is returned when a failure schedule is structurally
	// invalid (unordered, empty events, bad chaos parameters).
	ErrBadSchedule = failure.ErrBadSchedule

	// ErrNoDomain is returned when a node belongs to no recovery domain.
	ErrNoDomain = hierarchy.ErrUnknownNode
	// ErrOutsideDomains is returned when a failure cannot be attributed to a
	// recovery domain (an end in no domain, a link between unrelated
	// domains, an unknown failure kind).
	ErrOutsideDomains = hierarchy.ErrFailureOutsideDomains

	// ErrBadTopologyConfig is returned by topology-generator validation.
	ErrBadTopologyConfig = topology.ErrBadConfig
	// ErrBadProtocolConfig is returned by protocol-configuration validation.
	ErrBadProtocolConfig = protocol.ErrBadConfig
	// ErrPastEvent is returned when a protocol event is scheduled before the
	// simulator's current virtual time.
	ErrPastEvent = protocol.ErrPastEvent
)
