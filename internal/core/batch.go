package core

import (
	"smrp/internal/graph"
)

// JoinBatch admits joiners in order, producing the same session state,
// results, and errors as calling Join for each element of joiners in the same
// order — bit-identical, not merely equivalent: grafts, SHR refreshes,
// Condition-I reshaping, parking, and every float in every JoinResult match
// the sequential reference exactly.
//
// What the batch buys is amortization, not reordering. One source-rooted SPF
// tree under the failure mask, computed once (joins never move the mask),
// answers every joiner's delay-bound query — k early-exit point queries
// without a cache, k cache probes with one, when joining one at a time — and
// while healthy its distances are also the candidate sweep's lower bound
// (Session.sourceSPF), which a cacheless sequential join has to do without.
// One arena serves every candidate sweep and reshape check. Both are
// value-identical to the per-call machinery (TestJoinBatchBitIdentical). The
// intended use is k simultaneous joiners of one group, as queued by the server
// actor's mailbox or a flash-crowd workload.
//
// Per-joiner failures do not abort the batch: results[i] and errs[i] report
// joiner i's outcome, and a failed joiner leaves exactly the state a failed
// sequential Join would (e.g. parked on ErrPartitioned).
func (s *Session) JoinBatch(joiners []graph.NodeID) (results []*JoinResult, errs []error) {
	results = make([]*JoinResult, len(joiners))
	errs = make([]error, len(joiners))
	if len(joiners) == 0 {
		return results, errs
	}
	a := s.newArena()
	defer a.release()
	spt := s.g.Dijkstra(s.tree.Source(), s.maskOrNil())
	for i, nr := range joiners {
		results[i], errs[i] = s.join(nr, spt, a)
		if errs[i] == nil {
			s.stats.BatchJoins++
		}
	}
	return results, errs
}
