package metrics

import "fmt"

// SPFStats is a snapshot of the process-wide shortest-path-tree computation
// counters maintained by internal/graph: how many trees were built from
// scratch (FullRuns, a masked tree included), how much work those builds cost
// in settled nodes (NodesSettled — full builds only; point queries,
// early-exit and nearest-of sweeps are deliberately excluded), and the
// healthy-tree cache's hit/miss totals. DeltaRuns always reads 0: the delta
// repair it counted is gone, and the field stays only because the benchmark
// module reads it, until ROADMAP item 1(d).
//
// Counters are cumulative; use Sub to get the delta attributable to one study
// or phase. All values are deterministic for single-worker runs; with
// parallel workers, racing double-computes may shift a few units between
// hits and misses without affecting any study output. The underlying
// counters are atomics, so snapshots may be taken concurrently with live
// traffic (the serving layer's /metrics endpoint does exactly that).
type SPFStats struct {
	FullRuns     uint64 // shortest-path trees computed by a full sweep
	DeltaRuns    uint64 // always 0 (see above)
	NodesSettled uint64 // nodes settled, each once per run, across full builds
	CacheHits    uint64 // SPF cache hits
	CacheMisses  uint64 // SPF cache misses (each becomes a full run)
}

// Sub returns the counter delta s - prev (field-wise).
func (s SPFStats) Sub(prev SPFStats) SPFStats {
	return SPFStats{
		FullRuns:     s.FullRuns - prev.FullRuns,
		DeltaRuns:    s.DeltaRuns - prev.DeltaRuns,
		NodesSettled: s.NodesSettled - prev.NodesSettled,
		CacheHits:    s.CacheHits - prev.CacheHits,
		CacheMisses:  s.CacheMisses - prev.CacheMisses,
	}
}

// String renders the snapshot as a single stable line (used by the
// smrp-sim -spfstats flag).
func (s SPFStats) String() string {
	return fmt.Sprintf("spf: full=%d delta=%d settled=%d hits=%d misses=%d",
		s.FullRuns, s.DeltaRuns, s.NodesSettled, s.CacheHits, s.CacheMisses)
}
