// Hierarchy: the paper's §3.3.3 recovery architecture on a transit–stub
// internetwork. Receivers are clustered into stub recovery domains, each
// with an agent relaying from the level-0 core tree; a link failure inside
// one stub is recovered entirely inside that domain, leaving every other
// domain (and the core) untouched; a crashed agent suspends its domain until
// the router is repaired.
//
//	go run ./examples/hierarchy
package main

import (
	"fmt"
	"log"

	"smrp"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ts, err := smrp.GenerateTransitStub(smrp.DefaultTransitStubConfig(), 19)
	if err != nil {
		return err
	}
	fmt.Printf("transit–stub network: %s\n", smrp.DescribeTopology(ts.Graph))
	transit, stubs := ts.Domains[0], ts.Domains[1:]
	fmt.Printf("  %d-node transit core, %d stub domains of %d nodes each\n",
		len(transit.Nodes), len(stubs), len(stubs[0].Nodes))

	// Source inside the first stub domain.
	var src smrp.NodeID = smrp.Invalid
	for _, n := range stubs[0].Nodes {
		if n != stubs[0].Gateway {
			src = n
			break
		}
	}
	sess, err := smrp.NewNLevelSession(ts, src, smrp.DefaultConfig())
	if err != nil {
		return err
	}

	// Two receivers per stub domain.
	joined := 0
	for _, stub := range stubs {
		count := 0
		for _, n := range stub.Nodes {
			if n == stub.Gateway || n == src {
				continue
			}
			if err := sess.Join(n); err != nil {
				return err
			}
			joined++
			if count++; count == 2 {
				break
			}
		}
	}
	fmt.Printf("source %d (stub %d), %d receivers across %d domains\n\n",
		src, stubs[0].ID, joined, len(stubs))

	for _, m := range sess.Members() {
		d, err := sess.EndToEndDelay(m)
		if err != nil {
			return err
		}
		fmt.Printf("  receiver %-4d domain %-2d end-to-end delay %.3f\n",
			m, ts.DomainOf(m), d)
	}

	// Fail the worst-case link for a receiver in a non-source stub.
	var victim smrp.NodeID = smrp.Invalid
	var victimDomain int
	for _, m := range sess.Members() {
		if d := ts.DomainOf(m); d != stubs[0].ID {
			victim, victimDomain = m, d
			break
		}
	}
	f, err := sess.WorstCaseFor(victim)
	if err != nil {
		return err
	}
	fmt.Printf("\ninjecting %v inside stub domain %d (victim receiver %d)\n", f, victimDomain, victim)

	rep, err := sess.Recover(f)
	if err != nil {
		return err
	}
	fmt.Printf("recovery handled at level %d, domain %d\n", rep.Level, rep.DomainID)
	fmt.Printf("  reconfiguration scope: %d nodes (network has %d — %.0f%% untouched)\n",
		rep.NodesInDomain, ts.Graph.NumNodes(),
		100*(1-float64(rep.NodesInDomain)/float64(ts.Graph.NumNodes())))
	fmt.Printf("  members re-grafted inside the domain: %d, total RD %.3f\n",
		len(rep.Heal.Recovered), rep.Heal.TotalRecoveryDistance())
	if len(rep.Heal.Unrecovered) > 0 {
		fmt.Printf("  unrecoverable inside the domain (cut edge): %v\n", rep.Heal.Unrecovered)
	}

	// Crash the victim domain's agent (its gateway router): the domain is
	// suspended and its receivers degrade as a group, the core heals around
	// the lost agent, and repairing the router brings everyone back.
	crash := smrp.NodeDown(ts.Domains[victimDomain].Gateway)
	reports, err := sess.RecoverSet([]smrp.Failure{crash})
	if err != nil {
		return err
	}
	fmt.Printf("\ninjecting %v (the agent of stub domain %d)\n", crash, victimDomain)
	for _, r := range reports {
		fmt.Printf("  domain %d (level %d): suspended %v\n", r.DomainID, r.Level, r.DomainDown)
	}
	fmt.Printf("  receivers degraded: %v\n", sess.Parked())
	sum, err := sess.Repair(crash)
	if err != nil {
		return err
	}
	fmt.Printf("repaired: domains revived %v, receivers re-admitted %v, still degraded %v\n",
		sum.Revived, sum.Readmitted, sum.StillParked)
	return sess.Validate()
}
