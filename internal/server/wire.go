package server

import (
	"fmt"

	"smrp/internal/core"
	"smrp/internal/failure"
	"smrp/internal/graph"
)

// Wire types: the JSON shapes of the HTTP/JSON control API and the SSE event
// payloads. They are deliberately decoupled from the core structs so the
// externally visible contract can stay stable while internals evolve.

// LinkWire names one undirected link by its endpoints.
type LinkWire struct {
	U graph.NodeID `json:"u"`
	V graph.NodeID `json:"v"`
}

// FailureSpec selects components for fail/repair requests.
type FailureSpec struct {
	// Links lists undirected links by endpoint pair.
	Links []LinkWire `json:"links,omitempty"`
	// Nodes lists failed/repaired routers.
	Nodes []graph.NodeID `json:"nodes,omitempty"`
}

// failures converts the spec into the core failure list. Every node and link
// it names must be in topology g: failure masks index by node ID, so an ID
// from outside must not reach one, and a link g lacks would degrade the
// session over nothing.
func (s FailureSpec) failures(g *graph.Graph) ([]failure.Failure, error) {
	fs := make([]failure.Failure, 0, len(s.Links)+len(s.Nodes))
	for _, l := range s.Links {
		if l.U == l.V {
			return nil, fmt.Errorf("link (%d,%d): self-loop", l.U, l.V)
		}
		fs = append(fs, failure.LinkDown(l.U, l.V))
	}
	for _, v := range s.Nodes {
		fs = append(fs, failure.NodeDown(v))
	}
	if len(fs) == 0 {
		return nil, fmt.Errorf("empty failure set")
	}
	if err := failure.Check(fs, g); err != nil {
		return nil, err
	}
	return fs, nil
}

// CreateSessionRequest is the POST /v1/sessions body. Omitted tuning fields
// inherit the server's default config (the paper's defaults).
type CreateSessionRequest struct {
	Source graph.NodeID `json:"source"`
	// DThresh overrides the delay-bound knob when non-nil.
	DThresh *float64 `json:"dthresh,omitempty"`
	// ReshapeDelta overrides the Condition-I trigger threshold when non-nil.
	ReshapeDelta *int `json:"reshape_delta,omitempty"`
	// PeriodicReshape overrides Condition-II availability when non-nil.
	PeriodicReshape *bool `json:"periodic_reshape,omitempty"`
}

// SessionInfo describes one session in list/create responses.
type SessionInfo struct {
	ID      string       `json:"id"`
	Source  graph.NodeID `json:"source"`
	Members int          `json:"members"`
	Parked  int          `json:"parked"`
	// MailboxDepth is the number of queued commands at sampling time.
	MailboxDepth int `json:"mailbox_depth"`
	// EventSeq is the latest published event sequence number.
	EventSeq uint64 `json:"event_seq"`
}

// NodeRequest is the join/leave body.
type NodeRequest struct {
	Node graph.NodeID `json:"node"`
}

// FailRequest is the fail body: a failure spec plus the recovery switch.
// Recover defaults to true (fail-and-heal, the SMRP lifecycle); set it to
// false to only accumulate the failures in the session mask, protocol-layer
// style, and reconcile later.
type FailRequest struct {
	FailureSpec
	Recover *bool `json:"recover,omitempty"`
}

// JoinWire is the join response and EventJoin detail.
type JoinWire struct {
	Member      graph.NodeID   `json:"member"`
	Merger      graph.NodeID   `json:"merger"`
	Connection  []graph.NodeID `json:"connection"`
	Delay       float64        `json:"delay"`
	SPFDelay    float64        `json:"spf_delay"`
	MergerSHR   int            `json:"merger_shr"`
	WithinBound bool           `json:"within_bound"`
	Reshaped    []graph.NodeID `json:"reshaped,omitempty"`
}

func joinWire(r *core.JoinResult) *JoinWire {
	if r == nil {
		return nil
	}
	return &JoinWire{
		Member:      r.Member,
		Merger:      r.Merger,
		Connection:  r.Connection,
		Delay:       r.Delay,
		SPFDelay:    r.SPFDelay,
		MergerSHR:   r.MergerSHR,
		WithinBound: r.WithinBound,
		Reshaped:    r.Reshaped,
	}
}

// HealWire is the fail (recover=true) response and EventFail detail.
type HealWire struct {
	Failures     []string                    `json:"failures"`
	Disconnected []graph.NodeID              `json:"disconnected"`
	Recovered    map[graph.NodeID]float64    `json:"recovered,omitempty"`
	Detours      map[graph.NodeID]graph.Path `json:"detours,omitempty"`
	Unrecovered  []graph.NodeID              `json:"unrecovered,omitempty"`
	Readmitted   []graph.NodeID              `json:"readmitted,omitempty"`
	Pruned       []graph.NodeID              `json:"pruned,omitempty"`
}

func healWire(r *core.HealReport) *HealWire {
	if r == nil {
		return nil
	}
	w := &HealWire{
		Disconnected: r.Disconnected,
		Unrecovered:  r.Unrecovered,
		Readmitted:   r.Readmitted,
		Pruned:       r.Pruned,
	}
	if len(r.Recovered) > 0 {
		w.Recovered = make(map[graph.NodeID]float64, len(r.Recovered))
		w.Detours = make(map[graph.NodeID]graph.Path, len(r.Recovered))
		for _, rec := range r.Recovered {
			w.Recovered[rec.Member] = rec.RD
			w.Detours[rec.Member] = rec.Detour
		}
	}
	for _, f := range r.Failures {
		w.Failures = append(w.Failures, f.String())
	}
	return w
}

// RepairWire is the repair response and EventRepair detail.
type RepairWire struct {
	Repaired    []string       `json:"repaired"`
	Readmitted  []graph.NodeID `json:"readmitted,omitempty"`
	StillParked []graph.NodeID `json:"still_parked,omitempty"`
}

func repairWire(r *core.RepairReport) *RepairWire {
	if r == nil {
		return nil
	}
	w := &RepairWire{
		Readmitted:  r.Readmitted,
		StillParked: r.StillParked,
	}
	for _, f := range r.Repaired {
		w.Repaired = append(w.Repaired, f.String())
	}
	return w
}

// FailuresWire is the EventFail detail for recover=false (mask-only) fails.
type FailuresWire struct {
	Applied []string `json:"applied"`
	// Recovered is always false here: recovery was deferred.
	Recovered bool `json:"recovered"`
}

func failuresWire(fs []failure.Failure) *FailuresWire {
	w := &FailuresWire{}
	for _, f := range fs {
		w.Applied = append(w.Applied, f.String())
	}
	return w
}

// StatsWire is the per-session stats response.
type StatsWire struct {
	ID           string     `json:"id"`
	Members      int        `json:"members"`
	Parked       int        `json:"parked"`
	MailboxDepth int        `json:"mailbox_depth"`
	EventSeq     uint64     `json:"event_seq"`
	Stats        core.Stats `json:"stats"`
}

// ErrorWire is the body of every non-2xx response.
type ErrorWire struct {
	Error string `json:"error"`
	// Code is a stable, machine-matchable slug (e.g. "already_member",
	// "partitioned", "unknown_session").
	Code string `json:"code"`
}
