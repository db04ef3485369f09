package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"smrp/internal/core"
	"smrp/internal/failure"
	"smrp/internal/graph"
)

// Sentinel errors of the serving layer, matchable with errors.Is.
var (
	// ErrSessionClosed is returned for commands submitted to a session that
	// has been deleted or is draining.
	ErrSessionClosed = errors.New("server: session closed")
	// ErrUnknownSession is returned by registry lookups for IDs that do not
	// (or no longer) exist.
	ErrUnknownSession = errors.New("server: unknown session")
	// ErrMailboxFull is returned when a command could not be enqueued before
	// its context expired (the bounded mailbox is the backpressure surface).
	ErrMailboxFull = errors.New("server: session mailbox full")
)

// defaultMailboxCap bounds each actor's command mailbox. Submissions beyond
// the bound block the HTTP handler (not the actor) until space frees or the
// request context expires — that is the server's backpressure: overload
// turns into 503s at the edge, never into unbounded queues.
const defaultMailboxCap = 64

// cmdKind enumerates the actor mailbox protocol.
type cmdKind int

const (
	cmdJoin cmdKind = iota + 1
	cmdLeave
	cmdFail
	cmdRepair
	cmdReshape
	cmdStats
	cmdSnapshot
)

// command is one mailbox entry. reply is buffered (capacity 1) so the actor
// never blocks handing back a result, even if the submitter gave up.
type command struct {
	kind     cmdKind
	node     graph.NodeID
	failures []failure.Failure
	recover  bool
	reply    chan cmdResult
}

type cmdResult struct {
	val any
	err error
}

// snapshotReply pairs a session snapshot with the event sequence number it
// is consistent with: every event with Seq <= AsOfSeq is already reflected
// in Snap. The SSE writer uses this to coalesce a lag gap into one snapshot
// and resume the stream without duplicating or losing transitions.
type snapshotReply struct {
	Snap    core.Snapshot
	AsOfSeq uint64
}

// statsReply is the cmdStats payload.
type statsReply struct {
	Stats        core.Stats
	Members      int
	Parked       int
	MailboxDepth int
	EventSeq     uint64
}

// Actor owns one core.Session on a dedicated goroutine. All access to the
// session flows through the bounded mailbox, preserving core's
// single-goroutine contract with no locks around protocol state; the only
// shared structures the session touches (the topology and its SPF cache)
// are read-only respectively concurrency-safe.
type Actor struct {
	// ID is the registry-assigned, generation-stamped session ID.
	ID string
	// Source is the session's multicast source node.
	Source graph.NodeID

	sess *core.Session
	mbox chan *command
	hub  *hub

	stop     chan struct{} // closed by Close: stop accepting, flush, exit
	done     chan struct{} // closed when the run loop has fully exited
	stopOnce func()

	// stopMu serializes enqueues against Close: submit enqueues under the
	// read lock, Close sets stopped under the write lock before closing
	// stop. That ordering guarantees no command can enter the mailbox after
	// the stop signal, so the run loop's drain flush is definitive — after
	// Drained, the mailbox is empty and stays empty.
	stopMu  sync.RWMutex
	stopped bool // guarded by stopMu

	seq     uint64        // event sequence; actor goroutine only
	lastSeq atomic.Uint64 // published copy of seq for metrics/handlers
	handled atomic.Uint64 // commands processed (metrics)
	members atomic.Int64  // published member count (list/metrics gauges)
	parked  atomic.Int64  // published parked-member count (list/metrics gauges)

	// standing is the session's deterministic standing-state byte
	// accounting (core.Session.MemoryFootprint), published after every
	// handled command so /metrics can report per-fleet standing bytes —
	// the server-side view of the sparse-vs-dense storage tradeoff —
	// without a mailbox round trip.
	standing atomic.Int64
}

// newActor wraps sess in an actor and starts its goroutine.
func newActor(id string, sess *core.Session, mailboxCap int) *Actor {
	a := buildActor(id, sess, mailboxCap)
	go a.run()
	return a
}

// buildActor constructs the actor without starting its goroutine (tests
// preload the mailbox this way to exercise coalescing deterministically).
func buildActor(id string, sess *core.Session, mailboxCap int) *Actor {
	if mailboxCap < 1 {
		mailboxCap = defaultMailboxCap
	}
	a := &Actor{
		ID:     id,
		Source: sess.Tree().Source(),
		sess:   sess,
		mbox:   make(chan *command, mailboxCap),
		hub:    newHub(),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	a.standing.Store(sess.MemoryFootprint())
	var once atomic.Bool
	a.stopOnce = func() {
		if once.CompareAndSwap(false, true) {
			a.stopMu.Lock()
			a.stopped = true
			a.stopMu.Unlock()
			close(a.stop)
		}
	}
	return a
}

// Close stops the actor: no new commands are accepted, commands already in
// the mailbox are flushed (each gets its reply and its events), a final
// EventClosed snapshot is published, and every event feed ends. It does not
// wait; use Drained to wait for the flush to finish.
func (a *Actor) Close() { a.stopOnce() }

// Drained returns a channel closed once the actor's goroutine has exited
// (mailbox flushed, feeds closed).
func (a *Actor) Drained() <-chan struct{} { return a.done }

// MailboxDepth reports how many commands are queued right now.
func (a *Actor) MailboxDepth() int { return len(a.mbox) }

// EventSeq reports the sequence number of the most recently published event.
func (a *Actor) EventSeq() uint64 { return a.lastSeq.Load() }

// Handled reports how many commands the actor has processed.
func (a *Actor) Handled() uint64 { return a.handled.Load() }

// Subscribers reports the current event-feed subscriber count.
func (a *Actor) Subscribers() int { return a.hub.numSubs() }

// Members reports the session's member count as of the last handled command.
// Published by the actor goroutine; safe to read concurrently — this is what
// the session-list endpoint and /metrics serve without a mailbox round trip.
func (a *Actor) Members() int { return int(a.members.Load()) }

// Parked reports the parked-member count as of the last handled command
// (same publication discipline as Members).
func (a *Actor) Parked() int { return int(a.parked.Load()) }

// StandingBytes reports the session's deterministic standing-state byte
// accounting as of the last handled command (same publication discipline as
// Members). Sparse-storage sessions report O(|tree|+|members|) bytes; dense
// ones report O(topology).
func (a *Actor) StandingBytes() int64 { return a.standing.Load() }

// submit enqueues c and waits for its reply. It returns ErrSessionClosed if
// the actor is (or becomes) closed before the command is handled, and the
// context error if ctx expires while the mailbox is full.
func (a *Actor) submit(ctx context.Context, c *command) (any, error) {
	// Enqueue under the read lock: Close flips stopped under the write lock
	// before signalling stop, so a command either lands in the mailbox
	// before the drain flush begins (and is guaranteed a reply) or is
	// rejected here. Blocking on a full mailbox while holding the read lock
	// is safe — the actor is still consuming until stop is signalled, and
	// stop cannot be signalled while we hold the lock.
	a.stopMu.RLock()
	if a.stopped {
		a.stopMu.RUnlock()
		return nil, ErrSessionClosed
	}
	select {
	case a.mbox <- c:
		a.stopMu.RUnlock()
	case <-ctx.Done():
		a.stopMu.RUnlock()
		return nil, errors.Join(ErrMailboxFull, ctx.Err())
	}
	select {
	case r := <-c.reply:
		return r.val, r.err
	case <-a.done:
		// The actor exited while our command was in flight. Every enqueued
		// command is replied to by the drain flush, so the reply must be
		// here by now.
		select {
		case r := <-c.reply:
			return r.val, r.err
		default:
			return nil, ErrSessionClosed
		}
	}
}

// run is the actor goroutine: handle commands until Close, then flush the
// mailbox, publish a final snapshot, and end all feeds.
func (a *Actor) run() {
	defer close(a.done)
	for {
		select {
		case c := <-a.mbox:
			a.dispatch(c)
		case <-a.stop:
			for {
				select {
				case c := <-a.mbox:
					a.dispatch(c)
				default:
					a.emit(Event{Kind: EventClosed}, func() any { return a.sess.Snapshot() })
					a.hub.close()
					return
				}
			}
		}
	}
}

// dispatch routes one dequeued command. A join opens a coalescing window:
// every join queued consecutively behind it is pulled into one batch and
// admitted through core.JoinBatch, which amortizes the source SPF and the
// candidate-enumeration sweeps across the whole run of joiners. A session's
// mailbox joins are same-group by construction (one actor owns one session),
// so a backed-up flash crowd is exactly the shape the batched path is built
// for. Coalescing never reorders: the window closes at the first non-join
// command, which is then handled in its queue position, so the command and
// event order are identical to one-at-a-time handling — and JoinBatch itself
// is bit-identical to sequential joins, so replies and events match too.
func (a *Actor) dispatch(c *command) {
	if c.kind != cmdJoin {
		a.handle(c)
		return
	}
	batch := []*command{c}
	var next *command
collect:
	for {
		select {
		case nc := <-a.mbox:
			if nc.kind != cmdJoin {
				next = nc
				break collect
			}
			batch = append(batch, nc)
		default:
			break collect
		}
	}
	a.handleJoins(batch)
	if next != nil {
		a.handle(next)
	}
}

// handleJoins admits a coalesced run of join commands. A solo join takes the
// ordinary path; two or more go through the session's batched join. Either
// way each command gets its own reply and its own events, in order.
func (a *Actor) handleJoins(batch []*command) {
	joinBatchHist.observe(len(batch))
	if len(batch) == 1 {
		a.handle(batch[0])
		return
	}
	nodes := make([]graph.NodeID, len(batch))
	for i, c := range batch {
		nodes[i] = c.node
	}
	results, errs := a.sess.JoinBatch(nodes)
	for i, c := range batch {
		a.handled.Add(1)
		a.emitJoin(c.node, results[i], errs[i])
		c.reply <- cmdResult{val: results[i], err: errs[i]} // buffered: never blocks
	}
	a.members.Store(int64(a.sess.Tree().NumMembers()))
	a.parked.Store(int64(a.sess.NumParked()))
	a.standing.Store(a.sess.MemoryFootprint())
}

// emitJoin publishes what one join came to: the join and the reshapes it
// triggered, or the park of a joiner the failures cut off (graceful
// degradation); any other refusal is the caller's reply alone.
func (a *Actor) emitJoin(node graph.NodeID, r *core.JoinResult, err error) {
	if err == nil {
		joinsTotal.Add(1)
		a.emit(Event{Kind: EventJoin, Node: node}, func() any { return joinWire(r) })
		for _, m := range r.Reshaped {
			a.emit(Event{Kind: EventReshape, Node: m}, nil)
		}
	} else if errors.Is(err, core.ErrPartitioned) {
		a.emit(Event{Kind: EventPark, Node: node}, nil)
	}
}

// emit assigns the next sequence number and publishes ev to the hub, with
// what detail returns (nil: none) for its payload if anyone is listening.
// Actor goroutine only.
func (a *Actor) emit(ev Event, detail func() any) {
	a.seq++
	ev.Seq = a.seq
	ev.Session = a.ID
	a.lastSeq.Store(a.seq)
	a.hub.publish(ev, detail)
}

// handle executes one command against the owned session and publishes the
// resulting events in the exact order the state transitions happened.
func (a *Actor) handle(c *command) {
	a.handled.Add(1)
	var res cmdResult
	switch c.kind {
	case cmdJoin:
		r, err := a.sess.Join(c.node)
		res = cmdResult{val: r, err: err}
		a.emitJoin(c.node, r, err)
	case cmdLeave:
		err := a.sess.Leave(c.node)
		res = cmdResult{err: err}
		if err == nil {
			a.emit(Event{Kind: EventLeave, Node: c.node}, nil)
		}
	case cmdFail:
		if !c.recover {
			// Mirror Recover's pre-validation: a batch naming the source
			// would leave the session permanently degraded with nothing to
			// repair it, so reject it without touching the mask.
			if failure.TakesDownNode(c.failures, a.sess.Tree().Source()) {
				res = cmdResult{err: failure.ErrSourceFailed}
				break
			}
			a.sess.ApplyFailure(c.failures...)
			res = cmdResult{val: (*core.HealReport)(nil)}
			a.emit(Event{Kind: EventFail}, func() any { return failuresWire(c.failures) })
			break
		}
		rep, err := a.sess.Recover(c.failures...)
		res = cmdResult{val: rep, err: err}
		if err == nil {
			a.emit(Event{Kind: EventFail}, func() any { return healWire(rep) })
			for _, m := range rep.Unrecovered {
				a.emit(Event{Kind: EventPark, Node: m}, nil)
			}
			for _, m := range rep.Readmitted {
				a.emit(Event{Kind: EventReadmit, Node: m}, nil)
			}
		}
	case cmdRepair:
		rep, err := a.sess.Repair(c.failures...)
		res = cmdResult{val: rep, err: err}
		if err == nil {
			a.emit(Event{Kind: EventRepair}, func() any { return repairWire(rep) })
			for _, m := range rep.Readmitted {
				a.emit(Event{Kind: EventReadmit, Node: m}, nil)
			}
		}
	case cmdReshape:
		moved := a.sess.ReshapeAll()
		res = cmdResult{val: moved}
		for _, m := range moved {
			a.emit(Event{Kind: EventReshape, Node: m}, nil)
		}
	case cmdStats:
		res = cmdResult{val: statsReply{
			Stats:        a.sess.Stats(),
			Members:      a.sess.Tree().NumMembers(),
			Parked:       a.sess.NumParked(),
			MailboxDepth: len(a.mbox),
			EventSeq:     a.seq,
		}}
	case cmdSnapshot:
		res = cmdResult{val: snapshotReply{Snap: a.sess.Snapshot(), AsOfSeq: a.seq}}
	default:
		res = cmdResult{err: errors.New("server: unknown command")}
	}
	// Publish the membership gauges so list/metrics handlers can report them
	// without a mailbox round trip.
	a.members.Store(int64(a.sess.Tree().NumMembers()))
	a.parked.Store(int64(a.sess.NumParked()))
	a.standing.Store(a.sess.MemoryFootprint())
	c.reply <- res // buffered: never blocks the actor
}

// Convenience command wrappers used by the HTTP handlers and tests.

func (a *Actor) Join(ctx context.Context, n graph.NodeID) (*core.JoinResult, error) {
	v, err := a.submit(ctx, &command{kind: cmdJoin, node: n, reply: make(chan cmdResult, 1)})
	if err != nil {
		return nil, err
	}
	r, _ := v.(*core.JoinResult)
	return r, nil
}

func (a *Actor) Leave(ctx context.Context, n graph.NodeID) error {
	_, err := a.submit(ctx, &command{kind: cmdLeave, node: n, reply: make(chan cmdResult, 1)})
	return err
}

// Fail applies fs to the session. With recover set the failures are healed
// via SMRP local detours (core.Session.Recover) and the report is returned; without
// it the failures only accumulate in the session mask (core.ApplyFailure)
// and the report is nil.
func (a *Actor) Fail(ctx context.Context, fs []failure.Failure, recover bool) (*core.HealReport, error) {
	v, err := a.submit(ctx, &command{kind: cmdFail, failures: fs, recover: recover, reply: make(chan cmdResult, 1)})
	if err != nil {
		return nil, err
	}
	r, _ := v.(*core.HealReport)
	return r, nil
}

func (a *Actor) Repair(ctx context.Context, fs []failure.Failure) (*core.RepairReport, error) {
	v, err := a.submit(ctx, &command{kind: cmdRepair, failures: fs, reply: make(chan cmdResult, 1)})
	if err != nil {
		return nil, err
	}
	r, _ := v.(*core.RepairReport)
	return r, nil
}

func (a *Actor) Reshape(ctx context.Context) ([]graph.NodeID, error) {
	v, err := a.submit(ctx, &command{kind: cmdReshape, reply: make(chan cmdResult, 1)})
	if err != nil {
		return nil, err
	}
	moved, _ := v.([]graph.NodeID)
	return moved, nil
}

func (a *Actor) Stats(ctx context.Context) (statsReply, error) {
	v, err := a.submit(ctx, &command{kind: cmdStats, reply: make(chan cmdResult, 1)})
	if err != nil {
		return statsReply{}, err
	}
	return v.(statsReply), nil
}

// Snapshot returns the session state together with the event sequence it is
// consistent with (see snapshotReply).
func (a *Actor) Snapshot(ctx context.Context) (snapshotReply, error) {
	v, err := a.submit(ctx, &command{kind: cmdSnapshot, reply: make(chan cmdResult, 1)})
	if err != nil {
		return snapshotReply{}, err
	}
	return v.(snapshotReply), nil
}
