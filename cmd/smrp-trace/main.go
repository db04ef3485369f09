// Command smrp-trace runs one failure/recovery scenario on the event-driven
// protocol implementations and prints the full timeline: joins, the failure,
// per-member detection and restoration, and a before/after data-delivery
// check — the per-scenario view behind the aggregate experiments.
//
// Usage:
//
//	smrp-trace -n 60 -members 10 -seed 7
//	smrp-trace -protocol spf -dthresh 0
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"smrp/internal/core"
	"smrp/internal/eventsim"
	"smrp/internal/experiment"
	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/multicast"
	"smrp/internal/protocol"
	"smrp/internal/topology"
	"smrp/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "smrp-trace:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("smrp-trace", flag.ContinueOnError)
	var (
		n        = fs.Int("n", 60, "network size")
		nMembers = fs.Int("members", 10, "group size")
		alpha    = fs.Float64("alpha", 0.4, "Waxman alpha")
		dthresh  = fs.Float64("dthresh", 0.3, "SMRP D_thresh")
		seed     = fs.Uint64("seed", 7, "RNG seed")
		proto    = fs.String("protocol", "smrp", "protocol to trace: smrp|spf")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	g, source, members, err := experiment.FlatTrial(experiment.Base{
		N: *n, NG: *nMembers, Alpha: *alpha, Beta: topology.DefaultBeta,
	}, topology.NewRNG(*seed))
	if err != nil {
		return err
	}
	fmt.Printf("topology: %v\n", topology.Describe(g))
	fmt.Printf("source: %d, members: %v\n\n", source, members)

	cfg := protocol.DefaultConfig()
	cfg.SMRP = core.DefaultConfig()
	cfg.SMRP.DThresh = *dthresh

	var (
		inst arm
		tree *multicast.Tree
	)
	switch *proto {
	case "smrp":
		i, err := protocol.NewSMRPInstance(g, source, cfg)
		if err != nil {
			return err
		}
		inst, tree = i, i.Session().Tree()
	case "spf":
		i, err := protocol.NewSPFInstance(g, source, cfg)
		if err != nil {
			return err
		}
		inst, tree = i, i.Session().Tree()
	default:
		return fmt.Errorf("unknown protocol %q", *proto)
	}
	return traceArm(inst, tree, members)
}

// arm is what both message-level protocol instances offer a trace.
type arm interface {
	SetTrace(*trace.Log)
	ScheduleJoin(eventsim.Time, graph.NodeID) error
	InjectFailure(eventsim.Time, failure.Failure) error
	Run(eventsim.Time) error
	Restorations() []protocol.Restoration
	Multicast() map[graph.NodeID]eventsim.Time
	Network() *eventsim.Network
}

// traceArm joins the members, cuts the first one's worst-case link and
// prints what inst, whose multicast tree is tree, did about it.
func traceArm(inst arm, tree *multicast.Tree, members []graph.NodeID) error {
	log := trace.New(0)
	inst.SetTrace(log)
	for k, m := range members {
		if err := inst.ScheduleJoin(eventsim.Time(k+1), m); err != nil {
			return err
		}
	}
	if err := inst.Run(100); err != nil {
		return err
	}
	fmt.Printf("t=100  tree built: %d nodes, %d members\n", tree.NumNodes(), tree.NumMembers())
	printDelivery("      pre-failure delivery", inst.Multicast())

	victim := members[0]
	f, err := failure.WorstCaseFor(tree, victim)
	if err != nil {
		return err
	}
	disconnected := failure.DisconnectedMembers(tree, f.Mask())
	fmt.Printf("t=150  inject worst-case failure for member %d: %v (disconnects %v)\n", victim, f, disconnected)
	if err := inst.InjectFailure(150, f); err != nil {
		return err
	}
	if err := inst.Run(1000); err != nil {
		return err
	}
	printRestorations(inst.Restorations(), len(disconnected))
	printDelivery("      post-recovery delivery", inst.Multicast())
	fmt.Printf("      control messages sent: %d\n", inst.Network().Sent)
	fmt.Printf("\nprotocol event log (%s):\n%s", log.Summary(), log.String())
	return tree.Validate()
}

func printRestorations(rs []protocol.Restoration, disconnected int) {
	if len(rs) < disconnected {
		fmt.Printf("      %d of %d disconnected members were unrecoverable (failure was a cut edge)\n",
			disconnected-len(rs), disconnected)
	}
	if len(rs) == 0 {
		return
	}
	fmt.Println("      restorations:")
	for _, r := range rs {
		fmt.Printf("        member %-4d detected t=%-8.3f restored t=%-8.3f latency %-8.3f RD %.3f\n",
			r.Member, r.DetectedAt, r.RestoredAt, r.Latency, r.RecoveryDistance)
	}
}

func printDelivery(label string, d map[graph.NodeID]eventsim.Time) {
	type kv struct {
		m graph.NodeID
		t eventsim.Time
	}
	rows := make([]kv, 0, len(d))
	for m, t := range d {
		rows = append(rows, kv{m: m, t: t})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].m < rows[j].m })
	fmt.Printf("%s: %d members reached\n", label, len(rows))
	for _, r := range rows {
		fmt.Printf("        member %-4d +%.3f\n", r.m, r.t)
	}
}
