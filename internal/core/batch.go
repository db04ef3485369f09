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
// What the batch buys is amortization, not reordering: one arena serves every
// joiner's delay-bound query (Session.sourceSPF), candidate sweep and reshape
// check, value-identical to a fresh arena per call
// (TestJoinBatchBitIdentical). The intended use is k simultaneous joiners of
// one group, as queued by the server actor's mailbox or a flash-crowd
// workload.
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
	for i, nr := range joiners {
		results[i], errs[i] = s.join(nr, a)
		if errs[i] == nil {
			s.stats.BatchJoins++
		}
	}
	return results, errs
}
