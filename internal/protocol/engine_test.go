package protocol

import (
	"math"
	"slices"
	"testing"

	"smrp/internal/core"
	"smrp/internal/eventsim"
	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/topology"
)

// restorationOf returns member m's recorded restoration.
func restorationOf(t *testing.T, rs []Restoration, m graph.NodeID) Restoration {
	t.Helper()
	for _, r := range rs {
		if r.Member == m {
			return r
		}
	}
	t.Fatalf("member %d not restored: %v", m, rs)
	return Restoration{}
}

// TestJoinAfterFailureAvoidsFailedLink: on the Figure 1 topology, member 4
// joins after link 1–4 has failed. The session knows the failure, so the
// graft goes around the dead link and data reaches both members. Once the
// link is repaired, a fresh join may use it again.
func TestJoinAfterFailureAvoidsFailedLink(t *testing.T) {
	g, err := topology.PaperFig1()
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewSMRPInstance(g, 0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dead := failure.LinkDown(1, 4)
	if err := inst.ScheduleJoin(1, 3); err != nil {
		t.Fatal(err)
	}
	if err := inst.InjectFailure(30, dead); err != nil {
		t.Fatal(err)
	}
	if err := inst.ScheduleJoin(60, 4); err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(100); err != nil {
		t.Fatal(err)
	}
	tr := inst.Session().Tree()
	if slices.Contains(tr.Edges(), dead.Edge) {
		t.Fatalf("join after the failure grafted across it: %v", tr.Edges())
	}
	if got := inst.Multicast(); len(got) != 2 {
		t.Fatalf("multicast reaches %v, want members 3 and 4", got)
	}

	if err := inst.InjectRepair(110, dead); err != nil {
		t.Fatal(err)
	}
	if err := inst.ScheduleLeave(120, 4); err != nil {
		t.Fatal(err)
	}
	if err := inst.ScheduleJoin(130, 4); err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(200); err != nil {
		t.Fatal(err)
	}
	if tr := inst.Session().Tree(); !tr.IsMember(4) || !slices.Contains(tr.Edges(), dead.Edge) {
		t.Fatalf("join after the repair avoids the repaired link: %v", tr.Edges())
	}
}

// TestSPFJoinAfterFailureAvoidsFailedLink is the same scenario on the SPF
// baseline: a join after the failure follows the rerouted unicast tree.
func TestSPFJoinAfterFailureAvoidsFailedLink(t *testing.T) {
	g, err := topology.PaperFig1()
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewSPFInstance(g, 0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dead := failure.LinkDown(1, 4)
	if err := inst.ScheduleJoin(1, 3); err != nil {
		t.Fatal(err)
	}
	if err := inst.InjectFailure(30, dead); err != nil {
		t.Fatal(err)
	}
	if err := inst.ScheduleJoin(60, 4); err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(100); err != nil {
		t.Fatal(err)
	}
	if tr := inst.Session().Tree(); slices.Contains(tr.Edges(), dead.Edge) {
		t.Fatalf("join after the failure grafted across it: %v", tr.Edges())
	}
	if got := inst.Multicast(); len(got) != 2 {
		t.Fatalf("multicast reaches %v, want members 3 and 4", got)
	}
}

// TestProtocolRecoveryMatchesCore holds the message-level recovery to the
// algorithmic engine on 50 seeded Waxman scenarios: after one worst-case
// failure, the protocol's healed tree equals a twin core.Session that joined
// the same members in the same order and ran Recover, and every restoration
// carries that report's recovery distance to the bit.
func TestProtocolRecoveryMatchesCore(t *testing.T) {
	cfg := DefaultConfig()
	ran := 0
	for seed := uint64(1); seed <= 50; seed++ {
		rng := topology.NewRNG(seed)
		g, err := topology.Waxman(topology.WaxmanConfig{
			N: 60, Alpha: 0.4, Beta: 0.3, EnsureConnected: true,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		source := graph.NodeID(0)
		for n := 1; n < g.NumNodes(); n++ {
			if g.Degree(graph.NodeID(n)) > g.Degree(source) {
				source = graph.NodeID(n)
			}
		}
		var members []graph.NodeID
		for _, id := range rng.Sample(60, 13) {
			if graph.NodeID(id) != source && len(members) < 12 {
				members = append(members, graph.NodeID(id))
			}
		}
		inst, err := NewSMRPInstance(g, source, cfg)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := core.NewSession(g, source, cfg.SMRP)
		if err != nil {
			t.Fatal(err)
		}
		for k, m := range members {
			if err := inst.ScheduleJoin(eventsim.Time(k+1), m); err != nil {
				t.Fatal(err)
			}
			if _, err := twin.Join(m); err != nil {
				t.Fatalf("seed %d: twin join %d: %v", seed, m, err)
			}
		}
		if err := inst.Run(100); err != nil {
			t.Fatal(err)
		}
		f, err := failure.WorstCaseFor(inst.Session().Tree(), members[0])
		if err != nil {
			continue
		}
		if err := inst.InjectFailure(150, f); err != nil {
			t.Fatal(err)
		}
		if err := inst.Run(1000); err != nil {
			t.Fatal(err)
		}
		rep, err := twin.Recover(f)
		if err != nil {
			t.Fatalf("seed %d: twin recover: %v", seed, err)
		}
		ran++
		if pe, te := inst.Session().Tree().Edges(), twin.Tree().Edges(); !slices.Equal(pe, te) {
			t.Errorf("seed %d: protocol tree %v, core tree %v", seed, pe, te)
		}
		rs := inst.Restorations()
		if len(rs) != len(rep.Recovered) {
			t.Errorf("seed %d: %d restorations, core regrafted %d", seed, len(rs), len(rep.Recovered))
			continue
		}
		for k, r := range rs {
			want := rep.Recovered[k]
			if r.Member != want.Member || math.Float64bits(r.RecoveryDistance) != math.Float64bits(want.RD) {
				t.Errorf("seed %d: restoration %d is member %d at RD %v, core regrafted %d at %v", seed, k, r.Member, r.RecoveryDistance, want.Member, want.RD)
			}
		}
	}
	if ran < 40 {
		t.Fatalf("only %d of 50 scenarios had a worst-case failure", ran)
	}
}

// TestRestorationWaitsForSurvivorGraft: members 2 and 3 hang off relay 1,
// and failing 0–1 cuts both. Member 2 reconnects first, the long way 2–4–0,
// and member 3's nearest survivor is then member 2 itself, one hop away. 3's
// Join_Req stops at 2, whose own graft is still in flight: 3's detour alone
// would be live at 30 + 2 (detection) + 1 (notice) + 3·1, but it cannot be
// live before 2 is, at 30 + 2 + 1 + 3·6.
func TestRestorationWaitsForSurvivorGraft(t *testing.T) {
	b := graph.New(5)
	for _, e := range []struct {
		u, v graph.NodeID
		w    float64
	}{
		{0, 1, 1}, {1, 2, 1}, {1, 3, 1}, {2, 3, 1}, {2, 4, 5}, {0, 4, 1},
	} {
		if err := b.AddEdge(e.u, e.v, e.w); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultConfig()
	cfg.SMRP.DThresh = 0
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewSMRPInstance(g, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k, m := range []graph.NodeID{2, 3} {
		if err := inst.ScheduleJoin(eventsim.Time(k+1), m); err != nil {
			t.Fatal(err)
		}
	}
	if err := inst.InjectFailure(30, failure.LinkDown(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(100); err != nil {
		t.Fatal(err)
	}
	rs := inst.Restorations()
	j, k := restorationOf(t, rs, 2), restorationOf(t, rs, 3)
	if j.RecoveryDistance != 6 || k.RecoveryDistance != 1 {
		t.Fatalf("RDs = %v, %v; want 6 (2–4–0) and 1 (3–2)", j.RecoveryDistance, k.RecoveryDistance)
	}
	if j.RestoredAt != 51 {
		t.Errorf("member 2 restored at %v, want 51", j.RestoredAt)
	}
	if k.RestoredAt != j.RestoredAt {
		t.Errorf("member 3 restored at %v, want with the graft it sits on (%v)", k.RestoredAt, j.RestoredAt)
	}
	if got := inst.Multicast(); len(got) != 2 {
		t.Errorf("multicast reaches %v after recovery, want both members", got)
	}
}

// TestMulticastLeavesOutPendingMembers: the session commits member 4's
// detour at the failure, but data reaches 4 only once its Join_Req has
// landed (t = 38 on Figure 1 with link 1–4 down).
func TestMulticastLeavesOutPendingMembers(t *testing.T) {
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
	if err := inst.InjectFailure(30, failure.LinkDown(1, 4)); err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(35); err != nil {
		t.Fatal(err)
	}
	if !inst.Session().Tree().IsMember(4) {
		t.Fatal("the session should hold member 4's committed detour")
	}
	during := inst.Multicast()
	if _, ok := during[4]; ok {
		t.Error("pending member 4 receives data before its Join_Req landed")
	}
	if _, ok := during[3]; !ok {
		t.Error("unaffected member 3 lost data")
	}
	if err := inst.Run(38); err != nil {
		t.Fatal(err)
	}
	if after := inst.Multicast(); len(after) != 2 {
		t.Errorf("multicast reaches %v after the Join_Req landed, want both members", after)
	}
}

// TestLostJoinReqRetimedAfterBackoff: a second failure cuts member 4's
// detour (4–3) while its Join_Req is in flight. The member hears no notice;
// it retries after retryDelay(0) along the detour the second report gives it
// (4–2–0, RD 4): 37 + retryDelay(0) + 3·4, where retryDelay(0) is 5 plus the
// jitter stream's first draw, the one a fresh instance draws too.
func TestLostJoinReqRetimedAfterBackoff(t *testing.T) {
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
	if err := inst.InjectFailure(30, failure.LinkDown(1, 4)); err != nil {
		t.Fatal(err)
	}
	if err := inst.InjectFailure(37, failure.LinkDown(3, 4)); err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(200); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSMRPInstance(g, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	retry := fresh.retryDelay(0)
	if retry < 5 || retry >= 5+retryJitter {
		t.Fatalf("retryDelay(0) = %v, want in [5, %v)", retry, 5+retryJitter)
	}
	r := restorationOf(t, inst.Restorations(), 4)
	if detected := 37 + retry; r.DetectedAt != detected || r.RestoredAt != detected+12 || r.RecoveryDistance != 4 {
		t.Errorf("restoration = %+v, want detected %v, restored %v, RD 4", r, detected, detected+12)
	}
	if got := inst.Parked(); len(got) != 0 {
		t.Errorf("Parked() = %v, want none: retries never park a reachable member", got)
	}
}
