// Quickstart: build a survivable multicast session on a random network,
// inspect the SHR path-sharing metric, break the worst link, and watch the
// session restore itself through local detours.
//
//	go run ./examples/quickstart
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
	// 1. A 100-node Waxman network, the topology model of the paper's
	// evaluation.
	net, err := smrp.GenerateWaxman(100, 0.2, smrp.DefaultBeta, 42)
	if err != nil {
		return err
	}
	fmt.Println("network:", smrp.DescribeTopology(net))

	// 2. An SMRP session with the paper's default D_thresh = 0.3.
	sess, err := smrp.NewSession(net, 0, smrp.DefaultConfig())
	if err != nil {
		return err
	}
	members := []smrp.NodeID{7, 19, 33, 51, 64, 88}
	for _, m := range members {
		res, err := sess.Join(m)
		if err != nil {
			return err
		}
		fmt.Printf("member %-3d joined via merger %-3d delay %.3f (SPF %.3f, SHR %d)\n",
			m, res.Merger, res.Delay, res.SPFDelay, res.MergerSHR)
	}

	// 3. The SHR metric: how many member paths share each on-tree node's
	// uplink toward the source.
	shr := smrp.ComputeSHR(sess.Tree())
	fmt.Printf("\ntree: %d nodes, cost ", sess.Tree().NumNodes())
	if cost, err := sess.Tree().Cost(); err == nil {
		fmt.Printf("%.3f\n", cost)
	}
	for _, m := range members {
		fmt.Printf("  SHR(S,%d) = %d\n", m, shr[m])
	}

	// 4. Break the worst-case link for the first member: the link right
	// next to the source on its multicast path.
	f, err := smrp.WorstCaseFor(sess.Tree(), members[0])
	if err != nil {
		return err
	}
	fmt.Printf("\ninjecting %v — disconnects %v\n", f, smrp.DisconnectedMembers(sess.Tree(), f.Mask()))

	// 5. Recover with local detours: each cut member reconnects to the nearest
	// unaffected on-tree node instead of waiting for routing to reconverge.
	rep, err := sess.Recover(f)
	if err != nil {
		return err
	}
	for _, r := range rep.Recovered {
		fmt.Printf("  member %-3d recovered via %v (RD %.3f)\n", r.Member, r.Detour, r.RD)
	}
	if len(rep.Unrecovered) > 0 {
		fmt.Println("  unrecoverable:", rep.Unrecovered)
	}
	fmt.Printf("total recovery distance: %.3f\n", rep.TotalRecoveryDistance())
	return sess.Tree().Validate()
}
