package smrp_test

import (
	"fmt"
	"log"

	"smrp"
)

// Example_quickstart builds an SMRP session on the paper's Figure 1
// topology, breaks the link the example discusses, and heals via the local
// detour.
func Example_quickstart() {
	net, err := smrp.PaperFig1()
	if err != nil {
		log.Fatal(err)
	}
	cfg := smrp.DefaultConfig()
	cfg.DThresh = 0 // SPF-shaped joins, as in Figure 1(a)
	sess, err := smrp.NewSession(net, 0, cfg)
	if err != nil {
		log.Fatal(err)
	}
	// C and D join (nodes 3 and 4).
	for _, m := range []smrp.NodeID{3, 4} {
		if _, err := sess.Join(m); err != nil {
			log.Fatal(err)
		}
	}
	// The link A-D fails; D recovers by connecting to its neighbor C.
	rep, err := sess.Recover(smrp.LinkDown(1, 4))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("disconnected: %v\n", rep.Disconnected)
	fmt.Printf("detour: %v (RD %.0f)\n", rep.Recovered[0].Detour, rep.Recovered[0].RD)
	// Output:
	// disconnected: [4]
	// detour: 4→3 (RD 2)
}

// ExampleComputeSHR shows the paper's path-sharing metric on a small tree.
func ExampleComputeSHR() {
	net, err := smrp.PaperFig1()
	if err != nil {
		log.Fatal(err)
	}
	cfg := smrp.DefaultConfig()
	cfg.DThresh = 0
	sess, err := smrp.NewSession(net, 0, cfg)
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range []smrp.NodeID{3, 4} {
		if _, err := sess.Join(m); err != nil {
			log.Fatal(err)
		}
	}
	shr := smrp.ComputeSHR(sess.Tree())
	// Both members' paths share the link S-A, so SHR(S,A) counts both.
	fmt.Printf("SHR(S,A) = %d\n", shr[1])
	fmt.Printf("SHR(S,D) = %d\n", shr[4])
	// Output:
	// SHR(S,A) = 2
	// SHR(S,D) = 3
}

// ExampleWorstCaseFor selects the paper's per-member worst-case failure.
func ExampleWorstCaseFor() {
	net, err := smrp.PaperFig1()
	if err != nil {
		log.Fatal(err)
	}
	cfg := smrp.DefaultConfig()
	cfg.DThresh = 0
	sess, err := smrp.NewSession(net, 0, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sess.Join(4); err != nil {
		log.Fatal(err)
	}
	f, err := smrp.WorstCaseFor(sess.Tree(), 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(f)
	// Output:
	// link(0-1) down
}
