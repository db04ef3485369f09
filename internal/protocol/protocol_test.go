package protocol

import (
	"slices"
	"testing"

	"smrp/internal/core"
	"smrp/internal/eventsim"
	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/topology"
)

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.RefreshInterval = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero refresh interval should fail")
	}
	bad2 := DefaultConfig()
	bad2.HoldTime = bad2.RefreshInterval
	if err := bad2.Validate(); err == nil {
		t.Error("HoldTime <= RefreshInterval should fail")
	}
	bad3 := DefaultConfig()
	bad3.SMRP.DThresh = -1
	if err := bad3.Validate(); err == nil {
		t.Error("bad SMRP config should fail")
	}
}

// TestSMRPProtocolMatchesAlgorithm replays the Figure-4 join sequence at the
// message level and checks the distributed outcome equals the synchronous
// session (behavioural equivalence of the two layers).
func TestSMRPProtocolMatchesAlgorithm(t *testing.T) {
	g, err := topology.PaperFig4()
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewSMRPInstance(g, 0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	members := []graph.NodeID{4, 5, 6} // E, G, F
	for k, m := range members {
		if err := inst.ScheduleJoin(eventsim.Time(10*(k+1)), m); err != nil {
			t.Fatal(err)
		}
	}
	if err := inst.Run(100); err != nil {
		t.Fatal(err)
	}

	ref, err := core.NewSession(g, 0, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range members {
		if _, err := ref.Join(m); err != nil {
			t.Fatal(err)
		}
	}

	pt, rt := inst.Session().Tree(), ref.Tree()
	pe, re := pt.Edges(), rt.Edges()
	if len(pe) != len(re) {
		t.Fatalf("edge counts differ: protocol %v vs algorithm %v", pe, re)
	}
	for i := range pe {
		if pe[i] != re[i] {
			t.Errorf("edge %d: %v vs %v", i, pe[i], re[i])
		}
	}
	if err := pt.Validate(); err != nil {
		t.Fatal(err)
	}
	if inst.Network().Sent == 0 || inst.Network().Delivered == 0 {
		t.Error("protocol run should have exchanged messages")
	}
}

func TestSMRPSoftStateRefresh(t *testing.T) {
	g, err := topology.PaperFig4()
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewSMRPInstance(g, 0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.ScheduleJoin(1, 4); err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(50); err != nil {
		t.Fatal(err)
	}
	last, ok := inst.LastRefresh(4)
	if !ok {
		t.Fatal("no refresh recorded")
	}
	// With RefreshInterval=5 and horizon 50, the last refresh must be
	// within one interval of the horizon.
	if last < 50-DefaultConfig().RefreshInterval-1 {
		t.Errorf("last refresh at %v, horizon 50", last)
	}
}

func TestSMRPLeaveProtocol(t *testing.T) {
	g, err := topology.PaperFig4()
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewSMRPInstance(g, 0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.ScheduleJoin(1, 4); err != nil {
		t.Fatal(err)
	}
	if err := inst.ScheduleLeave(20, 4); err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(60); err != nil {
		t.Fatal(err)
	}
	if inst.Session().Tree().IsMember(4) {
		t.Error("member should have left")
	}
	if inst.Session().Tree().NumNodes() != 1 {
		t.Errorf("tree not pruned: %v", inst.Session().Tree().Nodes())
	}
}

// TestRecoveryLatencyLocalBeatsGlobal is the paper's headline motivation at
// the protocol level: on the Figure 1 topology with failure of L_AD, SMRP's
// local detour restores D's service faster than the SPF baseline, which
// must wait out routing reconvergence.
func TestRecoveryLatencyLocalBeatsGlobal(t *testing.T) {
	g, err := topology.PaperFig1()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.SMRP.DThresh = 0 // identical (SPF-shaped) trees: isolate recovery

	smrp, err := NewSMRPInstance(g, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	spf, err := NewSPFInstance(g, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []graph.NodeID{3, 4} {
		if err := smrp.ScheduleJoin(1, m); err != nil {
			t.Fatal(err)
		}
		if err := spf.ScheduleJoin(1, m); err != nil {
			t.Fatal(err)
		}
	}
	f := failure.LinkDown(1, 4)
	if err := smrp.InjectFailure(30, f); err != nil {
		t.Fatal(err)
	}
	if err := spf.InjectFailure(30, f); err != nil {
		t.Fatal(err)
	}
	if err := smrp.Run(200); err != nil {
		t.Fatal(err)
	}
	if err := spf.Run(200); err != nil {
		t.Fatal(err)
	}

	sr := smrp.Restorations()
	gr := spf.Restorations()
	if len(sr) != 1 || len(gr) != 1 {
		t.Fatalf("restorations: smrp %v spf %v", sr, gr)
	}
	if sr[0].Member != 4 || gr[0].Member != 4 {
		t.Fatalf("wrong member restored")
	}
	if sr[0].Latency >= gr[0].Latency {
		t.Errorf("local latency %v should beat global %v", sr[0].Latency, gr[0].Latency)
	}
	if sr[0].RecoveryDistance >= gr[0].RecoveryDistance {
		t.Errorf("local RD %v should be below global %v",
			sr[0].RecoveryDistance, gr[0].RecoveryDistance)
	}
	// Expected timelines:
	//   SMRP: detection 2 + notice 0 (D borders the cut) + query RTT 2·2 +
	//         join 2 = 8.
	//   SPF:  detection 2 + flood 0 (D detects directly) + SPF hold-down 5
	//         + join 4 = 11.
	if sr[0].RestoredAt != 38 {
		t.Errorf("SMRP restored at %v, want 38 (30+2+4+2)", sr[0].RestoredAt)
	}
	// Both trees must be healed and valid.
	if err := smrp.Session().Tree().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := spf.Session().Tree().Validate(); err != nil {
		t.Fatal(err)
	}
	if slices.Contains(smrp.Session().Tree().Edges(), f.Edge) || slices.Contains(spf.Session().Tree().Edges(), f.Edge) {
		t.Error("healed trees must avoid the failed link")
	}
}

// TestWorstCaseRecoveryBothMembers exercises the L_SA worst case where both
// members are simultaneously disconnected.
func TestWorstCaseRecoveryBothMembers(t *testing.T) {
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
	for _, m := range []graph.NodeID{3, 4} {
		if err := inst.ScheduleJoin(1, m); err != nil {
			t.Fatal(err)
		}
	}
	if err := inst.InjectFailure(30, failure.LinkDown(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(300); err != nil {
		t.Fatal(err)
	}
	rs := inst.Restorations()
	if len(rs) != 2 {
		t.Fatalf("restorations = %v, want both members", rs)
	}
	tr := inst.Session().Tree()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, m := range []graph.NodeID{3, 4} {
		if !tr.IsMember(m) {
			t.Errorf("member %d lost", m)
		}
	}
	if slices.Contains(tr.Edges(), graph.MakeEdgeID(0, 1)) {
		t.Error("healed tree uses the failed link")
	}
	// Data flows to everyone again.
	deliv := inst.Multicast()
	if len(deliv) != 2 {
		t.Errorf("multicast reaches %d members, want 2", len(deliv))
	}
}

func TestMulticastDuringOutage(t *testing.T) {
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
	for _, m := range []graph.NodeID{3, 4} {
		if err := inst.ScheduleJoin(1, m); err != nil {
			t.Fatal(err)
		}
	}
	if err := inst.Run(20); err != nil {
		t.Fatal(err)
	}
	before := inst.Multicast()
	if len(before) != 2 || before[3] != 3 || before[4] != 2 {
		t.Errorf("pre-failure delivery = %v", before)
	}
	// Cut L_AD and query immediately (before recovery runs).
	inst.Network().FailLink(1, 4)
	during := inst.Multicast()
	if _, ok := during[4]; ok {
		t.Error("cut member still receives data")
	}
	if _, ok := during[3]; !ok {
		t.Error("unaffected member lost data")
	}
}

func TestScheduleInPastRejected(t *testing.T) {
	g, err := topology.PaperFig1()
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewSMRPInstance(g, 0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	inst.Engine().MustSchedule(10, func() {})
	if err := inst.Run(10); err != nil {
		t.Fatal(err)
	}
	if err := inst.ScheduleJoin(5, 3); err == nil {
		t.Error("past join should be rejected")
	}
	if err := inst.ScheduleLeave(5, 3); err == nil {
		t.Error("past leave should be rejected")
	}
	if err := inst.InjectFailure(5, failure.LinkDown(0, 1)); err == nil {
		t.Error("past failure should be rejected")
	}
	spf, err := NewSPFInstance(g, 0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	spf.Engine().MustSchedule(10, func() {})
	if err := spf.Run(10); err != nil {
		t.Fatal(err)
	}
	if err := spf.ScheduleJoin(5, 3); err == nil || spf.ScheduleLeave(5, 3) == nil {
		t.Error("past SPF schedule should be rejected")
	}
	if err := spf.InjectFailure(5, failure.LinkDown(0, 1)); err == nil {
		t.Error("past SPF failure should be rejected")
	}
}

// TestQuerySchemeProtocolJoins runs message-level joins under the §3.3.1
// query scheme and verifies the discovery round-trips delay the join.
func TestQuerySchemeProtocolJoins(t *testing.T) {
	g, err := topology.PaperFig4()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.SMRP.Knowledge = core.QueryScheme
	inst, err := NewSMRPInstance(g, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k, m := range []graph.NodeID{4, 5, 6} {
		if err := inst.ScheduleJoin(eventsim.Time(10*(k+1)), m); err != nil {
			t.Fatal(err)
		}
	}
	if err := inst.Run(200); err != nil {
		t.Fatal(err)
	}
	tr := inst.Session().Tree()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, m := range []graph.NodeID{4, 5, 6} {
		if !tr.IsMember(m) {
			t.Errorf("member %d missing", m)
		}
	}
}

// TestRandomScenarioLatencies compares restoration latencies on a random
// topology under each protocol's own worst-case failure for one member, the
// paper's central speed claim, end to end.
func TestRandomScenarioLatencies(t *testing.T) {
	rng := topology.NewRNG(4242)
	g, err := topology.Waxman(topology.WaxmanConfig{
		N: 60, Alpha: 0.2, Beta: topology.DefaultBeta, EnsureConnected: true,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Root the session at a well-connected node so a single worst-case link
	// failure cannot partition the source (degree-1 sources make every
	// member provably unrecoverable, which is not the case under study).
	source := graph.NodeID(0)
	for n := 0; n < g.NumNodes(); n++ {
		if g.Degree(graph.NodeID(n)) > g.Degree(source) {
			source = graph.NodeID(n)
		}
	}
	cfg := DefaultConfig()
	smrp, err := NewSMRPInstance(g, source, cfg)
	if err != nil {
		t.Fatal(err)
	}
	spf, err := NewSPFInstance(g, source, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var members []int
	for _, m := range rng.Sample(60, 13) {
		if graph.NodeID(m) != source && len(members) < 12 {
			members = append(members, m)
		}
	}
	for k, m := range members {
		at := eventsim.Time(k + 1)
		if err := smrp.ScheduleJoin(at, graph.NodeID(m)); err != nil {
			t.Fatal(err)
		}
		if err := spf.ScheduleJoin(at, graph.NodeID(m)); err != nil {
			t.Fatal(err)
		}
	}
	if err := smrp.Run(100); err != nil {
		t.Fatal(err)
	}
	if err := spf.Run(100); err != nil {
		t.Fatal(err)
	}
	victim := graph.NodeID(members[0])
	fS, err := failure.WorstCaseFor(smrp.Session().Tree(), victim)
	if err != nil {
		t.Fatal(err)
	}
	fG, err := failure.WorstCaseFor(spf.Session().Tree(), victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := smrp.InjectFailure(150, fS); err != nil {
		t.Fatal(err)
	}
	if err := spf.InjectFailure(150, fG); err != nil {
		t.Fatal(err)
	}
	if err := smrp.Run(500); err != nil {
		t.Fatal(err)
	}
	if err := spf.Run(500); err != nil {
		t.Fatal(err)
	}

	var sLat, gLat eventsim.Time
	for _, r := range smrp.Restorations() {
		if r.Member == victim {
			sLat = r.Latency
		}
	}
	for _, r := range spf.Restorations() {
		if r.Member == victim {
			gLat = r.Latency
		}
	}
	if sLat == 0 || gLat == 0 {
		t.Fatalf("victim not restored: smrp=%v spf=%v", smrp.Restorations(), spf.Restorations())
	}
	t.Logf("victim %d: SMRP latency %.3f vs SPF %.3f", victim, sLat, gLat)
	if err := smrp.Session().Tree().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := spf.Session().Tree().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSPFLeaveAndMulticast(t *testing.T) {
	g, err := topology.PaperFig1()
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewSPFInstance(g, 0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []graph.NodeID{3, 4} {
		if err := inst.ScheduleJoin(1, m); err != nil {
			t.Fatal(err)
		}
	}
	if err := inst.ScheduleLeave(20, 3); err != nil {
		t.Fatal(err)
	}
	// Leaving a non-member is a silent no-op at fire time.
	if err := inst.ScheduleLeave(25, 2); err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(60); err != nil {
		t.Fatal(err)
	}
	if inst.Session().Tree().IsMember(3) {
		t.Error("member 3 should have left")
	}
	deliv := inst.Multicast()
	if len(deliv) != 1 || deliv[4] != 2 {
		t.Errorf("delivery = %v, want member 4 at +2", deliv)
	}
	if inst.Network() == nil {
		t.Error("Network accessor nil")
	}
}
