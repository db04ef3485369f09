package protocol

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"smrp/internal/eventsim"
	"smrp/internal/failure"
	"smrp/internal/graph"
	"smrp/internal/topology"
)

// spfTimingDigest is the FNV-64a digest of every SPF-arm restoration on the
// fifty scenarios of TestSPFRestorationTimingPinned, recorded before the arm's
// rejoins went through spfbase.Session.
const spfTimingDigest = 0x614a82e80106b9c1

// TestSPFRestorationTimingPinned pins the SPF arm's timing model: on fifty
// seeded scenarios in the latency study's shape (N = 100 Waxman, 30 members
// joining at t = 1..30, the victim's worst-case cut at t = 300), every
// restoration's member, detection time, restoration time and recovery
// distance folds into a digest that must not move.
func TestSPFRestorationTimingPinned(t *testing.T) {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	restored := 0
	for r := uint64(0); r < 50; r++ {
		rng := topology.NewRNG(1 + r*7919)
		g, err := topology.Waxman(topology.WaxmanConfig{
			N: 100, Alpha: 0.2, Beta: topology.DefaultBeta, EnsureConnected: true,
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
		for _, id := range rng.Sample(100, 31) {
			if graph.NodeID(id) != source && len(members) < 30 {
				members = append(members, graph.NodeID(id))
			}
		}
		inst, err := NewSPFInstance(g, source, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for k, m := range members {
			if err := inst.ScheduleJoin(eventsim.Time(k+1), m); err != nil {
				t.Fatal(err)
			}
		}
		if err := inst.Run(200); err != nil {
			t.Fatal(err)
		}
		f, err := failure.WorstCaseFor(inst.Session().Tree(), members[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.InjectFailure(300, f); err != nil {
			t.Fatal(err)
		}
		if err := inst.Run(2000); err != nil {
			t.Fatal(err)
		}
		put(r)
		for _, rs := range inst.Restorations() {
			put(uint64(rs.Member))
			put(math.Float64bits(float64(rs.DetectedAt)))
			put(math.Float64bits(float64(rs.RestoredAt)))
			put(math.Float64bits(rs.RecoveryDistance))
			restored++
		}
	}
	if restored == 0 {
		t.Fatal("no restorations to pin")
	}
	if got := h.Sum64(); got != spfTimingDigest {
		t.Errorf("SPF restoration digest = %#x over %d restorations, want %#x", got, restored, uint64(spfTimingDigest))
	}
}

// TestSPFRefreshAfterRestoration: a member the SPF arm restored refreshes
// its new branch again, like an SMRP member does.
func TestSPFRefreshAfterRestoration(t *testing.T) {
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
	if err := inst.InjectFailure(30, failure.LinkDown(1, 4)); err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(200); err != nil {
		t.Fatal(err)
	}
	rs := inst.Restorations()
	if len(rs) != 1 || rs[0].Member != 4 {
		t.Fatalf("restorations = %v, want member 4 only", rs)
	}
	last, ok := inst.LastRefresh(4)
	if !ok || last <= rs[0].RestoredAt {
		t.Errorf("LastRefresh(4) = %v,%v; want after restoration at %v", last, ok, rs[0].RestoredAt)
	}
	if now := inst.Engine().Now(); now-last > DefaultConfig().RefreshInterval {
		t.Errorf("refresh loop stalled: last at %v, now %v", last, now)
	}
}
