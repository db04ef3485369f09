package server

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"smrp/internal/core"
	"smrp/internal/graph"
)

// Registry owns the shared topology and the set of live session actors.
// All sessions run over the same immutable *graph.Graph and share its SPF
// cache, which keeps each source's healthy shortest-path tree and its tree
// under the failures last asked about: sessions rooted at one source read
// each other's trees, and a miss repairs one of them (ROADMAP item 1).
//
// Session IDs are generation-stamped: the registry's generation (fixed at
// construction, e.g. a boot counter) plus a monotonically increasing
// sequence number. IDs are never reused, even after Delete, so a stale
// client holding an ID from a previous generation (or a deleted session)
// gets a clean ErrUnknownSession instead of silently addressing a different
// session.
type Registry struct {
	g          *graph.Graph
	defaultCfg core.Config
	mailboxCap int
	generation uint64

	seq atomic.Uint64 // session sequence within this generation

	mu       sync.RWMutex
	sessions map[string]*Actor
	closed   bool
}

// RegistryConfig parameterizes NewRegistry.
type RegistryConfig struct {
	// Generation stamps every session ID minted by this registry. A daemon
	// restart should use a fresh generation so IDs from the previous life
	// are recognizably dead. Values < 1 default to 1.
	Generation uint64
	// MailboxCap bounds each session actor's command mailbox; < 1 selects
	// the default (64).
	MailboxCap int
	// DefaultConfig is the session config used when a create request does
	// not override tuning knobs. Zero value selects core.DefaultConfig.
	DefaultConfig core.Config
}

// NewRegistry builds a registry over g, which it shares read-only, SPF cache
// included, across every session actor.
func NewRegistry(g *graph.Graph, cfg RegistryConfig) *Registry {
	if cfg.Generation < 1 {
		cfg.Generation = 1
	}
	if (cfg.DefaultConfig == core.Config{}) {
		cfg.DefaultConfig = core.DefaultConfig()
	}
	return &Registry{
		g:          g,
		defaultCfg: cfg.DefaultConfig,
		mailboxCap: cfg.MailboxCap,
		generation: cfg.Generation,
		sessions:   make(map[string]*Actor),
	}
}

// Graph returns the shared topology (read-only).
func (r *Registry) Graph() *graph.Graph { return r.g }

// Create mints a new session actor rooted at source. Config overrides are
// applied on top of the registry default.
func (r *Registry) Create(req CreateSessionRequest) (*Actor, error) {
	cfg := r.defaultCfg
	if req.DThresh != nil {
		cfg.DThresh = *req.DThresh
	}
	if req.ReshapeDelta != nil {
		cfg.ReshapeDelta = *req.ReshapeDelta
	}
	if req.PeriodicReshape != nil {
		cfg.PeriodicReshape = *req.PeriodicReshape
	}
	if req.Source < 0 || int(req.Source) >= r.g.NumNodes() {
		return nil, fmt.Errorf("create: source %d: %w", req.Source, core.ErrUnknownNode)
	}
	sess, err := core.NewSession(r.g, req.Source, cfg)
	if err != nil {
		return nil, err
	}
	id := fmt.Sprintf("s%d-%d", r.generation, r.seq.Add(1))
	a := newActor(id, sess, r.mailboxCap)

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		a.Close()
		<-a.Drained()
		return nil, ErrSessionClosed
	}
	r.sessions[id] = a
	r.mu.Unlock()
	return a, nil
}

// Get returns the actor for id, or ErrUnknownSession.
func (r *Registry) Get(id string) (*Actor, error) {
	r.mu.RLock()
	a := r.sessions[id]
	r.mu.RUnlock()
	if a == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	return a, nil
}

// List returns all live actors sorted by ID (creation order within a
// generation: the numeric suffix is monotonic, but lexicographic order is
// stable and good enough for an inventory endpoint).
func (r *Registry) List() []*Actor {
	r.mu.RLock()
	out := make([]*Actor, 0, len(r.sessions))
	for _, a := range r.sessions {
		out = append(out, a)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the number of live sessions.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.sessions)
}

// Delete closes the actor for id, waits for its mailbox flush, and removes
// it. The ID is never reused.
func (r *Registry) Delete(id string) error {
	r.mu.Lock()
	a := r.sessions[id]
	delete(r.sessions, id)
	r.mu.Unlock()
	if a == nil {
		return fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	a.Close()
	<-a.Drained()
	return nil
}

// Close drains every session concurrently and waits for all actors to exit.
// Subsequent Creates fail with ErrSessionClosed; the registry keeps
// answering Get/List (draining clients may still read final state).
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	actors := make([]*Actor, 0, len(r.sessions))
	for _, a := range r.sessions {
		actors = append(actors, a)
	}
	r.mu.Unlock()

	for _, a := range actors {
		a.Close()
	}
	for _, a := range actors {
		<-a.Drained()
	}
}
