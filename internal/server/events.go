// Package server is the long-lived multicast-session control plane: it hosts
// many concurrent SMRP sessions over one shared topology and exposes them
// through an HTTP/JSON API with per-session Server-Sent-Events feeds.
//
// Concurrency model. core.Session is deliberately single-goroutine; the
// server preserves that invariant with a per-session actor (see Actor): one
// goroutine owns each session and consumes commands from a bounded mailbox,
// so no session state is ever touched by two goroutines. Sessions share one
// immutable *graph.Graph and its SPFCache — the cache is concurrency-safe
// and keeps each source's healthy tree and its tree under the last failures
// asked about, so sessions rooted at one source read each other's trees.
package server

import (
	"encoding/json"

	"smrp/internal/graph"
)

// EventKind labels one entry in a session's event feed.
type EventKind string

// Event kinds emitted by session actors. Every state-changing command emits
// at least one event; park/readmit transitions emit one event per member so
// feeds can track the degraded-member state machine exactly.
const (
	EventJoin     EventKind = "join"
	EventLeave    EventKind = "leave"
	EventFail     EventKind = "fail"
	EventRepair   EventKind = "repair"
	EventPark     EventKind = "park"
	EventReadmit  EventKind = "readmit"
	EventReshape  EventKind = "reshape"
	EventSnapshot EventKind = "snapshot"
	EventClosed   EventKind = "closed"
)

// Event is one entry in a session's event feed. Seq is assigned by the
// session's actor goroutine and is strictly increasing per session, so a
// subscriber observing increasing Seq values is observing events in the
// exact order the actor applied them. A gap in Seq means the subscriber
// lagged and events were dropped; the stream heals the gap with an
// EventSnapshot carrying the full session state at a Seq past the gap.
type Event struct {
	Seq     uint64    `json:"seq"`
	Session string    `json:"session"`
	Kind    EventKind `json:"kind"`
	// Node is set for member-scoped events (join/leave/park/readmit/reshape).
	Node graph.NodeID `json:"node,omitempty"`
	// Detail carries the kind-specific payload (join result, heal report,
	// repair report, snapshot, ...), marshaled once as the event is published
	// (hub.publish) so subscribers share one immutable copy.
	Detail json.RawMessage `json:"detail,omitempty"`
}

// marshalDetail renders v for Event.Detail, tolerating marshal failures (the
// event still flows, just without its payload).
func marshalDetail(v any) json.RawMessage {
	if v == nil {
		return nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return nil
	}
	return b
}
