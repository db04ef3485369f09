package eventsim

import (
	"errors"
	"fmt"

	"smrp/internal/graph"
)

// Message is an opaque protocol payload delivered between adjacent nodes.
type Message any

// Handler receives messages addressed to a node. from is the adjacent
// sender; at is the delivery time.
type Handler func(from graph.NodeID, msg Message)

// Network simulates hop-by-hop message delivery over a weighted graph:
// sending over an edge delivers after the edge-weight delay, unless the edge
// or a node has failed in the meantime (persistent failures — messages in
// flight on a failed component are lost, like packets on a cut fiber).
type Network struct {
	engine   *Engine
	g        *graph.Graph
	handlers map[graph.NodeID]Handler
	failed   *graph.Mask

	// Sent and Delivered count messages for overhead accounting.
	Sent      uint64
	Delivered uint64

	// freeTransits recycles in-flight message state. Engines are
	// single-threaded, so a plain slice freelist suffices — no sync.Pool.
	freeTransits []*transit
}

// transit is one message in flight: an owned copy of its remaining route, the
// index of the hop currently being crossed, and the payload. It implements
// runnable and re-schedules itself per hop, replacing the per-hop closure
// chain that used to allocate an Event plus a capture for every link crossed.
// The path is copied on acquire so callers may reuse their own path buffers
// the moment Send/SendAlong returns.
type transit struct {
	net  *Network
	path graph.Path
	i    int
	msg  Message
}

// acquireTransit returns a recycled (or new) transit with the route copied in.
func (n *Network) acquireTransit(path graph.Path, msg Message) *transit {
	var t *transit
	if k := len(n.freeTransits); k > 0 {
		t = n.freeTransits[k-1]
		n.freeTransits = n.freeTransits[:k-1]
	} else {
		t = &transit{net: n}
	}
	t.path = append(t.path[:0], path...)
	t.i = 0
	t.msg = msg
	return t
}

// releaseTransit returns t to the freelist, dropping payload references.
func (n *Network) releaseTransit(t *transit) {
	t.msg = nil
	t.path = t.path[:0]
	t.i = 0
	n.freeTransits = append(n.freeTransits, t)
}

// hop schedules t's delivery across its current hop. It reports false — the
// message is lost — when the link is gone or already failed at entry, exactly
// the pre-schedule check the recursive forwarder performed per hop.
func (t *transit) hop() bool {
	n := t.net
	u, v := t.path[t.i], t.path[t.i+1]
	w, ok := n.g.EdgeWeight(u, v)
	if !ok || n.failed.EdgeBlocked(u, v) {
		return false
	}
	n.engine.scheduleRunnable(Time(w), t)
	return true
}

// run fires when t finishes crossing its current hop: re-check the link (it
// may have died mid-flight — EdgeBlocked also covers endpoint node failures),
// then either advance to the next hop or deliver to the final node.
func (t *transit) run() {
	n := t.net
	u, v := t.path[t.i], t.path[t.i+1]
	if n.failed.EdgeBlocked(u, v) {
		n.releaseTransit(t)
		return
	}
	if t.i+2 < len(t.path) {
		t.i++
		if !t.hop() {
			n.releaseTransit(t)
		}
		return
	}
	h, ok := n.handlers[v]
	if !ok {
		n.releaseTransit(t)
		return
	}
	from, msg := t.path[0], t.msg
	n.releaseTransit(t) // release first: the handler may send (and reuse t)
	n.Delivered++
	h(from, msg)
}

// NewNetwork builds a network over g driven by engine.
func NewNetwork(engine *Engine, g *graph.Graph) *Network {
	return &Network{
		engine:   engine,
		g:        g,
		handlers: make(map[graph.NodeID]Handler),
		failed:   graph.NewMask(),
	}
}

// Graph returns the underlying topology.
func (n *Network) Graph() *graph.Graph { return n.g }

// Register installs the message handler for node id, replacing any previous
// handler.
func (n *Network) Register(id graph.NodeID, h Handler) {
	n.handlers[id] = h
}

// FailLink marks the undirected link (u, v) as persistently failed from the
// current simulation time onward.
func (n *Network) FailLink(u, v graph.NodeID) {
	n.failed.BlockEdge(u, v)
}

// FailNode marks node v (and all its links) as persistently failed.
func (n *Network) FailNode(v graph.NodeID) {
	n.failed.BlockNode(v)
}

// RepairLink restores the undirected link (u, v) from the current simulation
// time onward. Repairing a healthy link is a no-op; links blocked because an
// endpoint node is down stay down until the node is repaired.
func (n *Network) RepairLink(u, v graph.NodeID) {
	n.failed.UnblockEdge(u, v)
}

// RepairNode restores node v (and the links that failed with it). Links that
// were cut independently of the node stay cut.
func (n *Network) RepairNode(v graph.NodeID) {
	n.failed.UnblockNode(v)
}

// Failed returns the current failure mask (shared; callers must not mutate).
func (n *Network) Failed() *graph.Mask { return n.failed }

// LinkUp reports whether the link (u, v) exists and is currently healthy.
func (n *Network) LinkUp(u, v graph.NodeID) bool {
	return n.g.HasEdge(u, v) && !n.failed.EdgeBlocked(u, v)
}

// Send transmits msg from node u to adjacent node v. Delivery happens after
// the link's propagation delay; the message is silently lost if the link (or
// either endpoint) fails before delivery, or is already down at send time —
// exactly how a persistent cut behaves. Sending over a non-existent edge is
// a programming error and is reported immediately.
func (n *Network) Send(u, v graph.NodeID, msg Message) error {
	w, ok := n.g.EdgeWeight(u, v)
	if !ok {
		return fmt.Errorf("eventsim: send %d→%d: no such link", u, v)
	}
	n.Sent++
	if n.failed.EdgeBlocked(u, v) {
		return nil // lost on a dead link
	}
	t := n.acquireTransit(graph.Path{u, v}, msg)
	n.engine.scheduleRunnable(Time(w), t)
	return nil
}

// SendAlong forwards msg hop-by-hop along path (path[0] is the sender). Each
// hop's handler is NOT invoked; the message is delivered only to the final
// node after the cumulative path delay, but the transit is still subject to
// link failures hop-by-hop. This models source-routed control messages
// (e.g. Join_Req travelling the selected path) without requiring every node
// to implement forwarding for every message type.
//
// The path is copied before the call returns, so callers may reuse their
// path buffer immediately (the protocol refresh timers rely on this).
func (n *Network) SendAlong(path graph.Path, msg Message) error {
	if len(path) < 2 {
		return errors.New("eventsim: SendAlong needs at least one hop")
	}
	if err := path.Validate(n.g); err != nil {
		return fmt.Errorf("eventsim: SendAlong: %w", err)
	}
	n.Sent++
	t := n.acquireTransit(path, msg)
	if !t.hop() {
		n.releaseTransit(t) // lost on the first link
	}
	return nil
}
