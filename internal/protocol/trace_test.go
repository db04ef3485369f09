package protocol

import (
	"testing"

	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/topology"
	"smrp/internal/trace"
)

// TestSMRPInstanceTracing checks the event log captures the full lifecycle:
// joins, failure, notices, recoveries.
func TestSMRPInstanceTracing(t *testing.T) {
	g, err := topology.PaperFig1()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.SMRP.DThresh = 0
	inst, err := NewSMRPInstance(g, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	log := trace.New(0)
	inst.SetTrace(log)
	for _, m := range []graph.NodeID{3, 4} {
		if err := inst.ScheduleJoin(1, m); err != nil {
			t.Fatal(err)
		}
	}
	if err := inst.InjectFailure(30, failure.LinkDown(1, 4)); err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(100); err != nil {
		t.Fatal(err)
	}
	if got := len(ofCategory(log, trace.CatJoin)); got != 2 {
		t.Errorf("join events = %d, want 2", got)
	}
	if got := len(ofCategory(log, trace.CatFailure)); got != 1 {
		t.Errorf("failure events = %d, want 1", got)
	}
	if got := len(ofCategory(log, trace.CatNotice)); got != 1 {
		t.Errorf("notice events = %d, want 1", got)
	}
	recov := ofCategory(log, trace.CatRecovery)
	if len(recov) != 1 || recov[0].Node != 4 {
		t.Errorf("recovery events = %v", recov)
	}
	// Event ordering is chronological.
	es := log.Entries()
	for i := 1; i < len(es); i++ {
		if es[i].At < es[i-1].At {
			t.Fatalf("events out of order: %v then %v", es[i-1], es[i])
		}
	}
}

// TestSPFInstanceTracing checks the baseline's log too.
func TestSPFInstanceTracing(t *testing.T) {
	g, err := topology.PaperFig1()
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewSPFInstance(g, 0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	log := trace.New(0)
	inst.SetTrace(log)
	for _, m := range []graph.NodeID{3, 4} {
		if err := inst.ScheduleJoin(1, m); err != nil {
			t.Fatal(err)
		}
	}
	if err := inst.InjectFailure(30, failure.LinkDown(1, 4)); err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(200); err != nil {
		t.Fatal(err)
	}
	if got := len(ofCategory(log, trace.CatJoin)); got != 2 {
		t.Errorf("join events = %d", got)
	}
	if got := len(ofCategory(log, trace.CatRecovery)); got != 1 {
		t.Errorf("recovery events = %d", got)
	}
}

// TestTracingOffByDefault ensures instances run silently with no log set.
func TestTracingOffByDefault(t *testing.T) {
	g, err := topology.PaperFig1()
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewSMRPInstance(g, 0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.ScheduleJoin(1, 3); err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(20); err != nil {
		t.Fatal(err) // nil trace must not panic anywhere
	}
	if !inst.Session().Tree().IsMember(3) {
		t.Error("join failed without trace")
	}
}

// ofCategory returns the entries of log in category cat, in order.
func ofCategory(log *trace.Log, cat trace.Category) []trace.Entry {
	var out []trace.Entry
	for _, e := range log.Entries() {
		if e.Category == cat {
			out = append(out, e)
		}
	}
	return out
}
