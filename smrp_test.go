package smrp

import (
	"errors"
	"testing"

	"smrp/internal/protect"
)

// TestFacadeQuickstart exercises the README quick-start flow end to end
// through the public API.
func TestFacadeQuickstart(t *testing.T) {
	net, err := GenerateWaxman(60, 0.2, DefaultBeta, 42)
	if err != nil {
		t.Fatal(err)
	}
	if got := DescribeTopology(net); got.Nodes != 60 || got.Components != 1 {
		t.Fatalf("topology stats = %+v", got)
	}
	sess, err := NewSession(net, 0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	members := []NodeID{7, 19, 33, 51}
	for _, m := range members {
		if _, err := sess.Join(m); err != nil {
			t.Fatalf("join %d: %v", m, err)
		}
	}
	f, err := WorstCaseFor(sess.Tree(), members[0])
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Recover(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Disconnected) == 0 {
		t.Error("worst-case failure should disconnect at least the member")
	}
	if err := sess.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
	shr := ComputeSHR(sess.Tree())
	if shr[sess.Tree().Source()] != 0 {
		t.Error("SHR(S,S) must be 0")
	}
}

func TestFacadeBaseline(t *testing.T) {
	net, err := GenerateWaxman(40, 0.25, DefaultBeta, 7)
	if err != nil {
		t.Fatal(err)
	}
	spf, err := NewSPFSession(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := spf.Join(11); err != nil {
		t.Fatal(err)
	}
	f := LinkDown(0, spf.Tree().Children(0)[0])
	rep, err := spf.Fail(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Recovered { // the recoverable members rejoin
		if err := spf.Join(r.Member); err != nil {
			t.Fatal(err)
		}
	}
	if err := spf.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeProtocolInstances(t *testing.T) {
	net, err := GenerateWaxman(40, 0.25, DefaultBeta, 9)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewSMRPInstance(net, 0, DefaultProtocolConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.ScheduleJoin(1, 5); err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(50); err != nil {
		t.Fatal(err)
	}
	if !inst.Session().Tree().IsMember(5) {
		t.Error("member did not join")
	}
	spf, err := NewSPFInstance(net, 0, DefaultProtocolConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := spf.ScheduleJoin(1, 5); err != nil {
		t.Fatal(err)
	}
	if err := spf.Run(50); err != nil {
		t.Fatal(err)
	}
	if !spf.Session().Tree().IsMember(5) {
		t.Error("baseline member did not join")
	}
}

func TestFacadeNLevel(t *testing.T) {
	nt, err := GenerateNLevel(DefaultNLevelConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	leaves := nt.Leaves()
	leaf := nt.Domains[leaves[0]]
	var src NodeID = Invalid
	for _, n := range leaf.Nodes {
		if n != leaf.Gateway {
			src = n
			break
		}
	}
	s, err := NewNLevelSession(nt, src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A member in a different leaf domain, three levels away.
	other := nt.Domains[leaves[len(leaves)-1]]
	var m NodeID = Invalid
	for _, n := range other.Nodes {
		if n != other.Gateway {
			m = n
			break
		}
	}
	if err := s.Join(m); err != nil {
		t.Fatal(err)
	}
	d, err := s.EndToEndDelay(m)
	if err != nil || d <= 0 {
		t.Fatalf("delay = %v, %v", d, err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeProtection(t *testing.T) {
	net, err := GenerateWaxman(30, 0.7, 0.4, 15)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := BuildRedundantTrees(net, 0)
	if errors.Is(err, protect.ErrNotBiconnected) {
		t.Skip("sample not biconnected")
	} else if err != nil {
		t.Fatal(err)
	}
	if err := rt.Subscribe(5); err != nil {
		t.Fatal(err)
	}
	r := rt.Survives(LinkDown(0, net.Neighbors(0)[0].To).Mask(), 5)
	if !r.ViaRed && !r.ViaBlue {
		t.Error("redundant trees must survive a single link failure")
	}
	dep, err := NewDependableSession(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Join(5); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeFaultIsolation(t *testing.T) {
	net, err := PaperFig1()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.DThresh = 0
	sess, err := NewSession(net, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []NodeID{3, 4} {
		if _, err := sess.Join(m); err != nil {
			t.Fatal(err)
		}
	}
	f := LinkDown(1, 4)
	obs := ObserveFailure(sess.Tree(), f.Mask())
	suspects, err := IsolateFault(sess.Tree(), obs)
	if err != nil {
		t.Fatal(err)
	}
	if len(suspects) != 1 || suspects[0].Edge != f.Edge {
		t.Errorf("suspects = %v", suspects)
	}
}

func TestFacadeHierarchy(t *testing.T) {
	ts, err := GenerateTransitStub(DefaultTransitStubConfig(), 11)
	if err != nil {
		t.Fatal(err)
	}
	stubs := ts.Domains[1:]
	var src NodeID = Invalid
	for _, n := range stubs[0].Nodes {
		if n != stubs[0].Gateway {
			src = n
			break
		}
	}
	hs, err := NewNLevelSession(ts, src, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	joined := 0
	for _, stub := range stubs {
		for _, n := range stub.Nodes {
			if n != stub.Gateway && n != src {
				if err := hs.Join(n); err != nil {
					t.Fatal(err)
				}
				joined++
				break
			}
		}
	}
	if joined == 0 || len(hs.Members()) != joined {
		t.Errorf("joined %d, members %d", joined, len(hs.Members()))
	}
	if err := hs.Validate(); err != nil {
		t.Fatal(err)
	}
}
