// Command smrp-serve is the long-lived multicast-session control plane: it
// hosts many concurrent SMRP sessions over one shared topology and exposes
// join/leave/fail/repair, per-session stats, and Server-Sent-Events feeds
// over HTTP/JSON.
//
// Usage:
//
//	smrp-serve                              # 100-node Waxman on :8080
//	smrp-serve -addr :9000 -nodes 400       # bigger topology, other port
//	smrp-serve -seed 7 -alpha 0.25          # different random topology
//
// The topology is generated once at startup and shared read-only by every
// session; all sessions share one SPF cache, which keeps each source's
// healthy shortest-path tree and its tree under the failures last asked
// about, a miss repairing one of them where it can. SIGINT/SIGTERM triggers a graceful drain:
// health turns 503, new sessions are refused, every session actor flushes
// its queued commands and publishes a final snapshot event, then the
// process exits.
//
// See README.md "Running the server" for the endpoint reference and curl
// examples.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"smrp/internal/core"
	"smrp/internal/prof"
	"smrp/internal/server"
	"smrp/internal/topology"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "smrp-serve:", err)
		os.Exit(1)
	}
}

// run executes the daemon. ready (if non-nil) receives the bound listen
// address once the server is accepting — tests use it with "-addr 127.0.0.1:0"
// to learn the ephemeral port.
func run(ctx context.Context, args []string, ready func(addr string)) (err error) {
	fs := flag.NewFlagSet("smrp-serve", flag.ContinueOnError)
	profFlags := prof.Register(fs)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		nodes      = fs.Int("nodes", 100, "Waxman topology size")
		alpha      = fs.Float64("alpha", 0.2, "Waxman edge-density parameter")
		beta       = fs.Float64("beta", topology.DefaultBeta, "Waxman long-edge parameter")
		seed       = fs.Uint64("seed", 2005, "topology RNG seed")
		generation = fs.Uint64("generation", 1, "session-ID generation stamp (bump across restarts)")
		mailbox    = fs.Int("mailbox", 64, "per-session actor mailbox bound")
		dthresh    = fs.Float64("dthresh", 0.3, "default session delay threshold (D_thresh)")
		drainT     = fs.Duration("drain-timeout", 15*time.Second, "graceful-shutdown bound")
		mboxWait   = fs.Duration("mailbox-wait", 10*time.Second, "max request wait for mailbox space before 503")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Every session is created from this configuration: refuse a bad one here,
	// before listening, rather than on every session create.
	sessCfg := core.DefaultConfig()
	sessCfg.DThresh = *dthresh
	if err := sessCfg.Validate(); err != nil {
		return fmt.Errorf("-dthresh: %w", err)
	}

	// Profiles cover the daemon's whole lifetime and flush on graceful
	// shutdown — profile a serving window by sending SIGINT when done.
	if perr := profFlags.Start(); perr != nil {
		return perr
	}
	defer func() {
		if perr := profFlags.Stop(); err == nil {
			err = perr
		}
	}()

	g, err := topology.Waxman(topology.WaxmanConfig{
		N: *nodes, Alpha: *alpha, Beta: *beta, EnsureConnected: true,
	}, topology.NewRNG(*seed))
	if err != nil {
		return fmt.Errorf("topology: %w", err)
	}
	ts := topology.Describe(g)

	reg := server.NewRegistry(g, server.RegistryConfig{
		Generation:    *generation,
		MailboxCap:    *mailbox,
		DefaultConfig: sessCfg,
	})
	srv := server.New(reg, server.Config{
		MailboxWait:  *mboxWait,
		DrainTimeout: *drainT,
	})

	announce := func(bound string) {
		fmt.Printf("smrp-serve: listening on %s (topology: %s, seed=%d)\n", bound, ts, *seed)
		if ready != nil {
			ready(bound)
		}
	}
	err = srv.ListenAndServe(ctx, *addr, announce)
	if err == nil {
		fmt.Println("smrp-serve: drained cleanly")
	}
	return err
}
