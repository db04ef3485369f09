package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"smrp/internal/core"
	"smrp/internal/failure"
	"smrp/internal/graph"
)

// routes wires the control-plane endpoints onto mux. Patterns use the Go
// 1.22 method+wildcard router, so no third-party mux is needed.
func (s *Server) routes(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/sessions", s.createSession)
	mux.HandleFunc("GET /v1/sessions", s.listSessions)
	mux.HandleFunc("GET /v1/sessions/{id}", s.getSession)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.deleteSession)
	mux.HandleFunc("POST /v1/sessions/{id}/join", s.memberOp((*Actor).Join))
	mux.HandleFunc("POST /v1/sessions/{id}/leave", s.memberOp(
		func(a *Actor, ctx context.Context, n graph.NodeID) (*core.JoinResult, error) {
			return nil, a.Leave(ctx, n)
		}))
	mux.HandleFunc("POST /v1/sessions/{id}/fail", s.postFail)
	mux.HandleFunc("POST /v1/sessions/{id}/repair", s.postRepair)
	mux.HandleFunc("POST /v1/sessions/{id}/reshape", s.postReshape)
	mux.HandleFunc("GET /v1/sessions/{id}/stats", s.getStats)
	mux.HandleFunc("GET /v1/sessions/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /healthz", s.healthz)
	mux.HandleFunc("GET /metrics", s.metrics)
}

// writeJSON renders v with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if v != nil {
		_ = json.NewEncoder(w).Encode(v)
	}
}

// writeErr maps err onto the API's stable (status, code) pairs and renders
// an ErrorWire body.
func writeErr(w http.ResponseWriter, err error) {
	status, code := http.StatusInternalServerError, "internal"
	switch {
	case errors.Is(err, ErrUnknownSession):
		status, code = http.StatusNotFound, "unknown_session"
	case errors.Is(err, ErrSessionClosed):
		status, code = http.StatusServiceUnavailable, "session_closed"
	case errors.Is(err, ErrMailboxFull):
		status, code = http.StatusServiceUnavailable, "mailbox_full"
	case errors.Is(err, core.ErrAlreadyMember):
		status, code = http.StatusConflict, "already_member"
	case errors.Is(err, core.ErrPartitioned):
		// The member is alive but cut off: it parked and will be readmitted
		// automatically. Conflict (not failure): the request was understood
		// and the degraded-member state machine took over.
		status, code = http.StatusConflict, "partitioned"
	case errors.Is(err, failure.ErrMemberFailed):
		status, code = http.StatusConflict, "member_failed"
	case errors.Is(err, failure.ErrSourceFailed):
		status, code = http.StatusConflict, "source_failed"
	case errors.Is(err, core.ErrNotMember):
		status, code = http.StatusNotFound, "not_member"
	case errors.Is(err, graph.ErrUnknownEdge):
		// A fail or repair body naming a link the topology lacks: its own
		// code, ahead of the body's bad_request.
		status, code = http.StatusBadRequest, "unknown_edge"
	case errors.Is(err, core.ErrNoPath):
		// Includes ErrNoCandidate (it wraps ErrNoPath).
		status, code = http.StatusUnprocessableEntity, "no_path"
	case errors.Is(err, core.ErrBadConfig):
		status, code = http.StatusBadRequest, "bad_config"
	case errors.Is(err, failure.ErrBadSchedule):
		status, code = http.StatusBadRequest, "bad_failures"
	case errors.As(err, new(*http.MaxBytesError)):
		status, code = http.StatusRequestEntityTooLarge, "body_too_large"
	case errors.Is(err, errBadRequest):
		status, code = http.StatusBadRequest, "bad_request"
	case errors.Is(err, core.ErrUnknownNode):
		// After errBadRequest: a fail or repair body naming an unknown node
		// stays bad_request.
		status, code = http.StatusBadRequest, "unknown_node"
	}
	writeJSON(w, status, ErrorWire{Error: err.Error(), Code: code})
}

// errBadRequest tags body-decode and validation failures for writeErr.
var errBadRequest = errors.New("bad request")

// maxBodyBytes bounds a request body: the largest legitimate one, a failure
// set naming every link of a topology, is far below it.
const maxBodyBytes = 1 << 20

// decodeBody strictly decodes the request body into v: one JSON value of at
// most maxBodyBytes, known fields only, nothing but white space after it.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil { // an empty body's io.EOF included
		return fmt.Errorf("%w: %w", errBadRequest, err)
	}
	if _, err := dec.Token(); err != io.EOF { // EOF: the one value was all there is
		if err == nil {
			err = errors.New("unexpected data after the JSON value")
		}
		return fmt.Errorf("%w: %w", errBadRequest, err)
	}
	return nil
}

// opCtx bounds how long a request may wait for mailbox space: backpressure
// must surface as a 503 at the edge, not as an unbounded queue of blocked
// handlers.
func (s *Server) opCtx(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), s.mailboxWait)
}

// actorFor resolves the {id} path value, handling draining and 404.
func (s *Server) actorFor(w http.ResponseWriter, r *http.Request) *Actor {
	a, err := s.reg.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return nil
	}
	return a
}

func (s *Server) createSession(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeErr(w, fmt.Errorf("create: %w", ErrSessionClosed))
		return
	}
	var req CreateSessionRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	a, err := s.reg.Create(req)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Location", "/v1/sessions/"+a.ID)
	writeJSON(w, http.StatusCreated, s.infoOf(a))
}

// infoOf samples an actor's lock-free gauges into a SessionInfo. Member and
// parked counts are the actor's published gauges (as of its last handled
// command) — no mailbox round trip per session, so listing N sessions never
// queues behind their traffic; GET /v1/sessions/{id} gives the
// snapshot-consistent view.
func (s *Server) infoOf(a *Actor) SessionInfo {
	return SessionInfo{
		ID:           a.ID,
		Source:       a.Source,
		Members:      a.Members(),
		Parked:       a.Parked(),
		MailboxDepth: a.MailboxDepth(),
		EventSeq:     a.EventSeq(),
	}
}

func (s *Server) listSessions(w http.ResponseWriter, r *http.Request) {
	actors := s.reg.List()
	out := make([]SessionInfo, 0, len(actors))
	for _, a := range actors {
		out = append(out, s.infoOf(a))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) getSession(w http.ResponseWriter, r *http.Request) {
	a := s.actorFor(w, r)
	if a == nil {
		return
	}
	ctx, cancel := s.opCtx(r)
	defer cancel()
	sr, err := a.Snapshot(ctx)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		ID string `json:"id"`
		core.Snapshot
		EventSeq uint64 `json:"event_seq"`
	}{ID: a.ID, Snapshot: sr.Snap, EventSeq: sr.AsOfSeq})
}

func (s *Server) deleteSession(w http.ResponseWriter, r *http.Request) {
	if err := s.reg.Delete(r.PathValue("id")); err != nil {
		writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// memberOp builds a join/leave handler around one actor member operation.
func (s *Server) memberOp(op func(*Actor, context.Context, graph.NodeID) (*core.JoinResult, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		a := s.actorFor(w, r)
		if a == nil {
			return
		}
		var req NodeRequest
		if err := decodeBody(w, r, &req); err != nil {
			writeErr(w, err)
			return
		}
		ctx, cancel := s.opCtx(r)
		defer cancel()
		res, err := op(a, ctx, req.Node)
		if err != nil {
			writeErr(w, err)
			return
		}
		if res == nil { // leave: no payload
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, http.StatusOK, joinWire(res))
	}
}

func (s *Server) postFail(w http.ResponseWriter, r *http.Request) {
	a := s.actorFor(w, r)
	if a == nil {
		return
	}
	var req FailRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	fs, err := req.failures(s.reg.Graph())
	if err != nil {
		writeErr(w, fmt.Errorf("%w: %w", errBadRequest, err))
		return
	}
	recover := req.Recover == nil || *req.Recover
	ctx, cancel := s.opCtx(r)
	defer cancel()
	rep, err := a.Fail(ctx, fs, recover)
	if err != nil {
		writeErr(w, err)
		return
	}
	if !recover {
		writeJSON(w, http.StatusAccepted, failuresWire(fs))
		return
	}
	writeJSON(w, http.StatusOK, healWire(rep))
}

func (s *Server) postRepair(w http.ResponseWriter, r *http.Request) {
	a := s.actorFor(w, r)
	if a == nil {
		return
	}
	var req FailureSpec
	if err := decodeBody(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	fs, err := req.failures(s.reg.Graph())
	if err != nil {
		writeErr(w, fmt.Errorf("%w: %w", errBadRequest, err))
		return
	}
	ctx, cancel := s.opCtx(r)
	defer cancel()
	rep, err := a.Repair(ctx, fs)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, repairWire(rep))
}

func (s *Server) postReshape(w http.ResponseWriter, r *http.Request) {
	a := s.actorFor(w, r)
	if a == nil {
		return
	}
	ctx, cancel := s.opCtx(r)
	defer cancel()
	moved, err := a.Reshape(ctx)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Reshaped []graph.NodeID `json:"reshaped"`
	}{Reshaped: moved})
}

func (s *Server) getStats(w http.ResponseWriter, r *http.Request) {
	a := s.actorFor(w, r)
	if a == nil {
		return
	}
	ctx, cancel := s.opCtx(r)
	defer cancel()
	st, err := a.Stats(ctx)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, StatsWire{
		ID:           a.ID,
		Members:      st.Members,
		Parked:       st.Parked,
		MailboxDepth: st.MailboxDepth,
		EventSeq:     st.EventSeq,
		Stats:        st.Stats,
	})
}

func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "draining", "sessions": s.reg.Len(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok", "sessions": s.reg.Len(),
	})
}

// metrics renders a Prometheus-style text exposition from lock-free gauges
// only — it never round-trips a mailbox, so a scrape can neither stall on a
// busy actor nor add load to the serving path.
func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	actors := s.reg.List()
	var handled, events uint64
	var depth, subs, members, parked int
	var standing int64
	for _, a := range actors {
		handled += a.Handled()
		events += a.EventSeq()
		depth += a.MailboxDepth()
		subs += a.Subscribers()
		members += a.Members()
		parked += a.Parked()
		standing += a.StandingBytes()
	}
	draining := 0
	if s.draining.Load() {
		draining = 1
	}
	fmt.Fprintf(w, "smrp_draining %d\n", draining)
	fmt.Fprintf(w, "smrp_sessions %d\n", len(actors))
	fmt.Fprintf(w, "smrp_commands_handled_total %d\n", handled)
	fmt.Fprintf(w, "smrp_events_published_total %d\n", events)
	fmt.Fprintf(w, "smrp_mailbox_depth_sum %d\n", depth)
	fmt.Fprintf(w, "smrp_event_subscribers %d\n", subs)
	fmt.Fprintf(w, "smrp_members %d\n", members)
	fmt.Fprintf(w, "smrp_parked %d\n", parked)
	fmt.Fprintf(w, "smrp_session_standing_bytes %d\n", standing)
	fmt.Fprintf(w, "smrp_joins_total %d\n", joinsTotal.Load())
	// How large the actor mailbox's coalesced join batches actually get: one
	// observation per dispatch window (all-ones under light load; the mass
	// moves right when flash crowds back the mailbox up).
	joinBatchHist.write(w, "smrp_actor_join_batch_size")

	spf := graph.SPFCounters()
	fmt.Fprintf(w, "smrp_spf_full_runs_total %d\n", spf.FullRuns)
	fmt.Fprintf(w, "smrp_spf_delta_runs_total %d\n", spf.DeltaRuns)
	fmt.Fprintf(w, "smrp_spf_nodes_settled_total %d\n", spf.NodesSettled)
	fmt.Fprintf(w, "smrp_spf_cache_hits_total %d\n", spf.CacheHits)
	fmt.Fprintf(w, "smrp_spf_cache_misses_total %d\n", spf.CacheMisses)
	fmt.Fprintf(w, "smrp_spf_cache_entries %d\n", s.reg.Graph().SPFCacheOf().Len())

	for _, a := range actors {
		fmt.Fprintf(w, "smrp_session_mailbox_depth{session=%q} %d\n", a.ID, a.MailboxDepth())
		fmt.Fprintf(w, "smrp_session_events_total{session=%q} %d\n", a.ID, a.EventSeq())
		fmt.Fprintf(w, "smrp_session_commands_total{session=%q} %d\n", a.ID, a.Handled())
	}
}

// handleEvents streams the session's event feed as Server-Sent Events.
//
// The stream always opens with an EventSnapshot giving the subscriber a
// consistent baseline, then replays events with strictly increasing Seq in
// actor order. A consumer too slow for its 64-event buffer loses events —
// never blocking the actor — and the resulting Seq gap is healed by
// coalescing: the writer fetches a fresh snapshot (serialized through the
// mailbox, so it reflects every skipped event) and resumes the live stream
// past it.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	a := s.actorFor(w, r)
	if a == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, errors.New("streaming unsupported"))
		return
	}
	sub := a.hub.subscribe()
	if sub == nil {
		writeErr(w, fmt.Errorf("events: %w", ErrSessionClosed))
		return
	}
	defer a.hub.unsubscribe(sub)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	writeSSE := func(ev Event) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Kind, data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	streamEvents(r.Context(), a, sub, writeSSE)
}

// streamEvents is the feed pump shared by the SSE handler and its tests:
// emit a baseline snapshot, then replay live events in actor order, healing
// any lag gap (dropped events) with a fresh coalesced snapshot. writeSSE
// returns false to stop (client gone, write error).
func streamEvents(ctx context.Context, a *Actor, sub *subscriber, writeSSE func(Event) bool) {
	snapshotEvent := func() (uint64, bool) {
		sr, err := a.Snapshot(ctx)
		if err != nil {
			return 0, false
		}
		ok := writeSSE(Event{
			Seq:     sr.AsOfSeq,
			Session: a.ID,
			Kind:    EventSnapshot,
			Detail:  marshalDetail(sr.Snap),
		})
		return sr.AsOfSeq, ok
	}

	last, ok := snapshotEvent()
	if !ok {
		return
	}
	for {
		select {
		case ev, open := <-sub.ch:
			if !open {
				return // session closed: feed ends after the final events
			}
			if ev.Seq <= last {
				continue // already covered by a snapshot
			}
			if ev.Seq != last+1 {
				// Lag gap: coalesce everything missed into one snapshot.
				var snapOK bool
				if last, snapOK = snapshotEvent(); !snapOK {
					return
				}
				if ev.Seq <= last {
					continue
				}
			}
			if !writeSSE(ev) {
				return
			}
			last = ev.Seq
		case <-ctx.Done():
			return
		}
	}
}
