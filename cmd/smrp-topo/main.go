// Command smrp-topo generates and inspects evaluation topologies.
//
// Usage:
//
//	smrp-topo -n 100 -alpha 0.2 -seed 1            # describe a Waxman graph
//	smrp-topo -n 100 -alpha 0.2 -json topo.json    # also write it as JSON
//	smrp-topo -transit-stub                        # describe a transit–stub
//	smrp-topo -describe topo.json                  # re-describe a saved file
package main

import (
	"flag"
	"fmt"
	"os"

	"smrp/internal/graph"
	"smrp/internal/topology"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "smrp-topo:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("smrp-topo", flag.ContinueOnError)
	var (
		n        = fs.Int("n", 100, "number of nodes")
		alpha    = fs.Float64("alpha", 0.2, "Waxman alpha (edge density)")
		beta     = fs.Float64("beta", topology.DefaultBeta, "Waxman beta (long-edge bias)")
		seed     = fs.Uint64("seed", 1, "RNG seed")
		jsonOut  = fs.String("json", "", "write the generated topology to this file")
		describe = fs.String("describe", "", "describe a previously saved topology instead of generating")
		ts       = fs.Bool("transit-stub", false, "generate a transit–stub topology instead of flat Waxman")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *describe != "" {
		f, err := os.Open(*describe)
		if err != nil {
			return err
		}
		defer f.Close()
		g, err := topology.ReadJSON(f)
		if err != nil {
			return err
		}
		fmt.Println(topology.Describe(g))
		return nil
	}

	if *ts {
		cfg := topology.DefaultTransitStubConfig()
		tsg, err := topology.GenerateTransitStub(cfg, topology.NewRNG(*seed))
		if err != nil {
			return err
		}
		fmt.Printf("transit–stub: %v\n", topology.Describe(tsg.Graph))
		fmt.Printf("  transit domain: %d nodes, gateway %d\n",
			len(tsg.Domains[0].Nodes), tsg.Domains[0].Gateway)
		for _, s := range tsg.Domains[1:] {
			fmt.Printf("  stub %d: %d nodes, gateway %d attached to transit %d\n",
				s.ID, len(s.Nodes), s.Gateway, s.Attach)
		}
		return maybeWrite(*jsonOut, tsg.Graph)
	}

	g, err := topology.Waxman(topology.WaxmanConfig{
		N: *n, Alpha: *alpha, Beta: *beta, EnsureConnected: true,
	}, topology.NewRNG(*seed))
	if err != nil {
		return err
	}
	fmt.Println(topology.Describe(g))
	return maybeWrite(*jsonOut, g)
}

// maybeWrite saves the topology as JSON when a path was given.
func maybeWrite(path string, g *graph.Graph) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return topology.WriteJSON(f, g)
}
