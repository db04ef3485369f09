package server

import (
	"context"
	"errors"
	"net"
	"net/http"
	"sync/atomic"
	"time"
)

// Default backpressure and drain bounds.
const (
	// defaultMailboxWait bounds how long a request waits for mailbox space
	// before surfacing backpressure as a 503.
	defaultMailboxWait = 10 * time.Second
	// defaultDrainTimeout bounds the shutdown sequence: actors flush their
	// mailboxes first (bounded, so this terminates), then remaining HTTP
	// connections get until the timeout to finish.
	defaultDrainTimeout = 15 * time.Second
)

// Config parameterizes a Server.
type Config struct {
	// MailboxWait bounds how long a request may block on a full session
	// mailbox; <= 0 selects the default (10s).
	MailboxWait time.Duration
	// DrainTimeout bounds graceful shutdown; <= 0 selects the default (15s).
	DrainTimeout time.Duration
}

// Server is the HTTP control plane over a Registry. Create one with New,
// mount Handler on any http.Server, or use Serve for the full lifecycle
// (listen, serve, graceful drain on context cancellation).
type Server struct {
	reg          *Registry
	mux          *http.ServeMux
	mailboxWait  time.Duration
	drainTimeout time.Duration
	draining     atomic.Bool
}

// New builds a Server over reg.
func New(reg *Registry, cfg Config) *Server {
	if cfg.MailboxWait <= 0 {
		cfg.MailboxWait = defaultMailboxWait
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = defaultDrainTimeout
	}
	s := &Server{
		reg:          reg,
		mux:          http.NewServeMux(),
		mailboxWait:  cfg.MailboxWait,
		drainTimeout: cfg.DrainTimeout,
	}
	s.routes(s.mux)
	return s
}

// Drain runs the graceful-shutdown sequence on the registry side: flip the
// draining flag (healthz turns 503, creates are refused), then close every
// actor — each stops accepting, flushes its queued commands, publishes a
// final snapshot event, and ends its feeds. Serve calls it when its context
// ends; it is idempotent.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.reg.Close()
}

// Serve accepts connections on ln until ctx is cancelled, then drains:
//
//  1. stop advertising health (healthz 503) and refuse new sessions,
//  2. flush every session actor (bounded mailboxes, so this terminates),
//     ending all SSE feeds with a final snapshot event,
//  3. shut the HTTP server down, giving in-flight requests until
//     DrainTimeout to complete.
//
// It returns nil after a clean drain, or the first listener/shutdown error.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler: s.mux,
		BaseContext: func(net.Listener) context.Context {
			// Request contexts outlive ctx deliberately: in-flight work is
			// completed during the drain, not cancelled mid-command.
			return context.Background()
		},
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		// Listener failed before any drain was requested.
		s.Drain()
		return err
	case <-ctx.Done():
	}

	s.Drain()
	shCtx, cancel := context.WithTimeout(context.Background(), s.drainTimeout)
	defer cancel()
	err := hs.Shutdown(shCtx)
	if serr := <-serveErr; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// ListenAndServe listens on addr and calls Serve. The ready callback (if
// non-nil) receives the bound address once the listener is open — tests and
// the daemon use it to learn the port when addr ends in ":0".
func (s *Server) ListenAndServe(ctx context.Context, addr string, ready func(addr string)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready(ln.Addr().String())
	}
	return s.Serve(ctx, ln)
}
