// Package eventsim is a deterministic discrete-event simulation engine — the
// repository's substitute for ns2. It provides a virtual clock, an event
// heap with stable FIFO ordering at equal timestamps, timers, and a simple
// message-passing network layer with per-link delays and failure injection.
//
// The message-level protocol implementations in internal/protocol run on
// top of this engine; all evaluation latencies (failure detection, query
// round-trips, join propagation, routing reconvergence) are expressed in the
// engine's virtual time.
package eventsim

import (
	"errors"
	"fmt"
	"math"

	"smrp/internal/pqueue"
)

// Time is virtual simulation time in abstract delay units (the same units
// as graph edge weights).
type Time float64

// Infinity is a time later than any schedulable event.
var Infinity = Time(math.Inf(1))

// Event is a scheduled callback.
type Event struct {
	at      Time
	seq     uint64
	fn      func()
	r       runnable
	cancel  bool
	recycle bool
}

// runnable is the allocation-free alternative to a func() event body: a
// reusable object (e.g. the network layer's pooled transit) that carries its
// own state and is invoked by pointer. Events scheduled through
// scheduleRunnable return to the engine's freelist after firing, so the
// per-message Event+closure garbage that dominated the latency study's
// allocation profile disappears (see DESIGN.md §8).
type runnable interface{ run() }

// Cancel prevents the event from firing (safe to call multiple times).
func (e *Event) Cancel() { e.cancel = true }

// Before orders events by time, breaking ties by scheduling sequence so
// simultaneous events fire in FIFO order (determinism). It implements
// pqueue.Ordered, letting the engine's queue run on the generic min-heap
// instead of container/heap's `any`-boxed interface (which
// allocated on every Push and type-asserted on every Pop).
func (e *Event) Before(other *Event) bool {
	if e.at != other.at {
		return e.at < other.at
	}
	return e.seq < other.seq
}

// Engine is a single-threaded discrete-event simulator. The zero value is
// not usable; construct with NewEngine. Engines are not safe for concurrent
// use.
type Engine struct {
	now    Time
	seq    uint64
	queue  pqueue.Heap[*Event]
	budget uint64   // max events per Run, guards against livelock
	free   []*Event // recycled Events for scheduleRunnable (no handle escapes)
}

// DefaultEventBudget bounds the number of events a single Run may process.
const DefaultEventBudget = 10_000_000

// NewEngine returns an engine at time 0.
func NewEngine() *Engine {
	return &Engine{budget: DefaultEventBudget}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Schedule queues fn to run after delay; it returns the event handle so the
// caller may cancel it. Negative and NaN delays are rejected: a NaN would
// set the clock to NaN, and every later event would run at NaN.
func (e *Engine) Schedule(delay Time, fn func()) (*Event, error) {
	if !(delay >= 0) {
		return nil, fmt.Errorf("eventsim: delay %v is negative or NaN", delay)
	}
	if fn == nil {
		return nil, errors.New("eventsim: nil event function")
	}
	ev := &Event{at: e.now + delay, seq: e.seq, fn: fn}
	e.seq++
	e.queue.Push(ev)
	return ev, nil
}

// scheduleRunnable queues r to fire after delay on a freelisted Event. No
// handle is returned — the Event is owned by the engine and recycled the
// moment it pops, which is only sound because nobody outside the engine can
// retain (or Cancel) it. The public Schedule keeps allocating precisely
// because its handle escapes. The caller guarantees delay >= 0 (edge weights
// are validated positive at graph construction).
func (e *Engine) scheduleRunnable(delay Time, r runnable) {
	var ev *Event
	if k := len(e.free); k > 0 {
		ev = e.free[k-1]
		e.free = e.free[:k-1]
	} else {
		ev = &Event{}
	}
	ev.at = e.now + delay
	ev.seq = e.seq
	ev.r = r
	ev.recycle = true
	e.seq++
	e.queue.Push(ev)
}

// MustSchedule is Schedule for callers with static arguments; it panics on
// the programming errors Schedule rejects.
func (e *Engine) MustSchedule(delay Time, fn func()) *Event {
	ev, err := e.Schedule(delay, fn)
	if err != nil {
		panic(err)
	}
	return ev
}

// Run processes events in timestamp order until the queue empties, the
// event budget is exhausted, or until (inclusive) the given horizon. It
// returns an error if the budget was exhausted (likely livelock).
func (e *Engine) Run(until Time) error {
	processed := uint64(0)
	for {
		next, ok := e.queue.Peek()
		if !ok || next.at > until {
			break
		}
		popped, _ := e.queue.Pop() // non-empty: Peek above succeeded
		if popped.cancel {
			continue
		}
		if processed >= e.budget {
			return fmt.Errorf("eventsim: event budget %d exhausted at t=%v (livelock?)", e.budget, e.now)
		}
		e.now = popped.at
		fn, r := popped.fn, popped.r
		if popped.recycle {
			// Return the Event to the freelist before invoking the body:
			// the body may schedule further events and reuse it immediately.
			popped.fn, popped.r = nil, nil
			popped.recycle, popped.cancel = false, false
			e.free = append(e.free, popped)
		}
		if r != nil {
			r.run()
		} else {
			fn()
		}
		processed++
	}
	// Advance the clock to the horizon if it is finite and ahead.
	if until != Infinity && until > e.now {
		e.now = until
	}
	return nil
}
