package server

import "sync"

// subBuf is the per-subscriber event buffer. A subscriber that falls more
// than subBuf events behind is marked lagged and stops receiving individual
// events; the SSE writer detects the sequence gap and coalesces it into one
// snapshot (see Actor.Snapshot and the events handler). Publishing is
// therefore always non-blocking: a slow consumer can never stall the actor.
const subBuf = 64

// subscriber is one attached event-feed consumer.
type subscriber struct {
	ch chan Event
}

// hub fans one session's events out to its subscribers. It is written from
// the session's actor goroutine (publish) and read/modified from HTTP
// handler goroutines (subscribe/unsubscribe), so the subscriber set is
// mutex-guarded; the per-subscriber channels decouple the two sides.
type hub struct {
	mu     sync.Mutex
	subs   map[*subscriber]struct{}
	closed bool
}

func newHub() *hub {
	return &hub{subs: make(map[*subscriber]struct{})}
}

// subscribe attaches a new consumer. It returns nil when the hub is already
// closed (session deleted or server draining).
func (h *hub) subscribe() *subscriber {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil
	}
	s := &subscriber{ch: make(chan Event, subBuf)}
	h.subs[s] = struct{}{}
	return s
}

// unsubscribe detaches s. Idempotent; safe after close.
func (h *hub) unsubscribe(s *subscriber) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.subs, s)
}

// publish delivers ev to every subscriber without ever blocking: a consumer
// whose buffer is full simply misses the event, which the SSE writer
// observes as a sequence gap and repairs with a coalesced snapshot. Called
// only from the actor goroutine, so subscribers see events in actor order.
// The event's Detail is what detail returns (nil: none), built and marshalled
// here, once for all subscribers and only if there is one: a session nobody
// listens to spends nothing on payloads nobody reads.
func (h *hub) publish(ev Event, detail func() any) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed || len(h.subs) == 0 {
		return
	}
	if detail != nil {
		ev.Detail = marshalDetail(detail())
	}
	for s := range h.subs {
		select {
		case s.ch <- ev:
		default: // lagged: drop; the seq gap triggers snapshot coalescing
		}
	}
}

// close publishes nothing further and closes every subscriber channel, which
// ends their SSE streams after any buffered events drain.
func (h *hub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for s := range h.subs {
		close(s.ch)
		delete(h.subs, s)
	}
}

// numSubs returns the current subscriber count (metrics).
func (h *hub) numSubs() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}
