// Protection: SMRP's reactive local detours side by side with the
// preplanned schemes from the paper's related work (§2) — Médard et al.
// redundant trees (instant switchover, two standing trees) and Han & Shin
// dependable primary/backup connections — on one biconnected network, under
// the same worst-case failure.
//
//	go run ./examples/protection
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
	// Preplanned protection needs redundancy to exist: sample Waxman
	// networks until one carries Médard red/blue trees, which exist exactly
	// when the network is biconnected.
	source := smrp.NodeID(0)
	var (
		net *smrp.Network
		rt  *smrp.RedundantTrees
	)
	for seed := uint64(0); rt == nil; seed++ {
		if seed > 200 {
			return fmt.Errorf("no biconnected sample found")
		}
		g, err := smrp.GenerateWaxman(40, 0.6, 0.4, seed)
		if err != nil {
			return err
		}
		if rt, err = smrp.BuildRedundantTrees(g, source); err == nil {
			net = g
		}
	}
	fmt.Println("network:", smrp.DescribeTopology(net))
	members := []smrp.NodeID{5, 11, 23, 31, 37}

	// Reactive: an SMRP session.
	sess, err := smrp.NewSession(net, source, smrp.DefaultConfig())
	if err != nil {
		return err
	}
	// Preplanned: Médard red/blue trees (built above) and Han–Shin channel
	// pairs.
	dep, err := smrp.NewDependableSession(net, source)
	if err != nil {
		return err
	}
	for _, m := range members {
		if _, err := sess.Join(m); err != nil {
			return err
		}
		if err := rt.Subscribe(m); err != nil {
			return err
		}
		if _, err := dep.Join(m); err != nil {
			return err
		}
	}

	smrpCost, err := sess.Tree().Cost()
	if err != nil {
		return err
	}
	redCost, err := rt.PrunedCost()
	if err != nil {
		return err
	}
	depCost, err := dep.ReservedCost()
	if err != nil {
		return err
	}
	fmt.Printf("\nstanding resource usage:\n")
	fmt.Printf("  SMRP tree:                 %.3f\n", smrpCost)
	fmt.Printf("  redundant trees (2, pruned): %.3f (%.1fx)\n", redCost, redCost/smrpCost)
	fmt.Printf("  dependable channels:       %.3f (%.1fx)\n", depCost, depCost/smrpCost)

	// Worst-case failure for the first member on the SMRP tree.
	victim := members[0]
	f, err := smrp.WorstCaseFor(sess.Tree(), victim)
	if err != nil {
		return err
	}
	fmt.Printf("\ninjecting %v (worst case for member %d)\n\n", f, victim)

	// Reactive recovery: a short search, then a short new path.
	_, rd, err := smrp.LocalDetour(sess.Tree(), f.Mask(), victim)
	if err != nil {
		fmt.Println("  SMRP: unrecoverable for this member")
	} else {
		fmt.Printf("  SMRP local detour:     recovery distance %.3f (reactive)\n", rd)
	}
	// Preplanned: no search at all.
	reach := rt.Survives(f.Mask(), victim)
	fmt.Printf("  redundant trees:       red-alive=%v blue-alive=%v (instant switchover)\n",
		reach.ViaRed, reach.ViaBlue)
	outcome, err := dep.Failover(f.Mask(), victim)
	if err != nil {
		return err
	}
	fmt.Printf("  dependable channels:   %v\n", outcome)
	return nil
}
