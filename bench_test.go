package smrp

// Library benchmarks: the cost of a join and of a local-detour computation
// on the paper's default evaluation topology. The figure and study
// benchmarks live with the studies in internal/experiment. Run with:
//
//	go test -run '^$' -bench=. -benchmem .

import "testing"

const benchSeed = 2005 // the paper's year; fixed for reproducibility

// BenchmarkJoin measures the cost of a single SMRP join on the default
// evaluation topology (the protocol's critical path).
func BenchmarkJoin(b *testing.B) {
	net, err := GenerateWaxman(100, 0.2, DefaultBeta, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sess, err := NewSession(net, 0, DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		rng := NewRNG(uint64(i))
		members := rng.Sample(99, 30)
		b.StartTimer()
		for _, m := range members {
			if _, err := sess.Join(NodeID(m + 1)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkLocalDetour measures the recovery-path computation itself.
func BenchmarkLocalDetour(b *testing.B) {
	net, err := GenerateWaxman(100, 0.2, DefaultBeta, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	sess, err := NewSession(net, 0, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := NewRNG(benchSeed)
	for _, m := range rng.Sample(99, 30) {
		if _, err := sess.Join(NodeID(m + 1)); err != nil {
			b.Fatal(err)
		}
	}
	members := sess.Tree().Members()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := members[i%len(members)]
		f, err := WorstCaseFor(sess.Tree(), m)
		if err != nil {
			b.Fatal(err)
		}
		_, _, _ = LocalDetour(sess.Tree(), f.Mask(), m)
	}
}
