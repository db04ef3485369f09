package smrp_test

import (
	"errors"
	"testing"

	"smrp"
)

// TestPublicSentinels exercises the re-exported sentinel errors through the
// public API only: every failure mode must be matchable with errors.Is on a
// smrp.Err* value.
func TestPublicSentinels(t *testing.T) {
	net, err := smrp.PaperFig1()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := smrp.NewSession(net, 0, smrp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Join(3); err != nil {
		t.Fatal(err)
	}

	if _, err := sess.Join(99); !errors.Is(err, smrp.ErrUnknownNode) {
		t.Errorf("Join(99) = %v, want ErrUnknownNode", err)
	}
	if _, err := sess.Join(3); !errors.Is(err, smrp.ErrAlreadyMember) {
		t.Errorf("re-Join = %v, want ErrAlreadyMember", err)
	}
	if _, err := sess.Recover(smrp.LinkDown(3, 3)); !errors.Is(err, smrp.ErrUnknownEdge) {
		t.Errorf("Recover(self-link) = %v, want ErrUnknownEdge", err)
	}

	// Cut every link around member 4's would-be attachment: joining it under
	// the accumulated mask degrades gracefully to the parked state.
	if _, err := sess.Join(4); err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Recover(smrp.SRLG(net, 4)...)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Unrecovered) != 1 || rep.Unrecovered[0] != 4 {
		t.Fatalf("Unrecovered = %v, want [4]", rep.Unrecovered)
	}
	if !sess.IsParked(4) {
		t.Fatal("member 4 should be parked")
	}
	if _, err := sess.Join(4); !errors.Is(err, smrp.ErrPartitioned) {
		t.Errorf("Join(parked) = %v, want ErrPartitioned", err)
	}

	// Repair re-admits automatically.
	rr, err := sess.Repair(smrp.SRLG(net, 4)...)
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Readmitted) != 1 || rr.Readmitted[0] != 4 {
		t.Fatalf("Readmitted = %v, want [4]", rr.Readmitted)
	}

	// Configuration and schedule validation sentinels.
	bad := smrp.DefaultConfig()
	bad.DThresh = -1
	if _, err := smrp.NewSession(net, 0, bad); !errors.Is(err, smrp.ErrBadConfig) {
		t.Errorf("NewSession(bad config) = %v, want ErrBadConfig", err)
	}
	if _, err := smrp.GenerateWaxman(0, 0.2, smrp.DefaultBeta, 1); !errors.Is(err, smrp.ErrBadTopologyConfig) {
		t.Errorf("GenerateWaxman(0 nodes) = %v, want ErrBadTopologyConfig", err)
	}
	s := smrp.FailureSchedule{Events: []smrp.FailureEvent{{At: 1}}}
	if err := s.Validate(); !errors.Is(err, smrp.ErrBadSchedule) {
		t.Errorf("Validate(empty event) = %v, want ErrBadSchedule", err)
	}
	cfg := smrp.DefaultChaosConfig()
	cfg.Events = 0
	if _, err := smrp.RandomSchedule(net, 0, nil, cfg, smrp.NewRNG(1)); !errors.Is(err, smrp.ErrBadSchedule) {
		t.Errorf("RandomSchedule(bad config) = %v, want ErrBadSchedule", err)
	}
}

// TestHierarchySentinels: the one hierarchical session type answers with the
// same typed sentinels whichever generator built its topology.
func TestHierarchySentinels(t *testing.T) {
	ts, err := smrp.GenerateTransitStub(smrp.DefaultTransitStubConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	two, err := smrp.NewNLevelSession(ts, ts.Domains[1].Nodes[0], smrp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	nt, err := smrp.GenerateNLevel(smrp.DefaultNLevelConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	three, err := smrp.NewNLevelSession(nt, nt.Domains[nt.Leaves()[0]].Nodes[0], smrp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		s        *smrp.NLevelSession
		receiver smrp.NodeID
		outside  smrp.NodeID
	}{
		{"GenerateTransitStub", two, ts.Domains[2].Nodes[0], smrp.NodeID(ts.Graph.NumNodes())},
		{"GenerateNLevel", three, nt.Domains[nt.Leaves()[1]].Nodes[0], smrp.NodeID(nt.Graph.NumNodes())},
	} {
		if err := tc.s.Join(tc.outside); !errors.Is(err, smrp.ErrNoDomain) {
			t.Errorf("%s: Join(node in no domain) = %v, want ErrNoDomain", tc.name, err)
		}
		if err := tc.s.Leave(tc.receiver); !errors.Is(err, smrp.ErrNotMember) {
			t.Errorf("%s: Leave(non-member) = %v, want ErrNotMember", tc.name, err)
		}
		if err := tc.s.Join(tc.receiver); err != nil {
			t.Fatalf("%s: Join(%d) = %v", tc.name, tc.receiver, err)
		}
		if err := tc.s.Join(tc.receiver); !errors.Is(err, smrp.ErrAlreadyMember) {
			t.Errorf("%s: re-Join = %v, want ErrAlreadyMember", tc.name, err)
		}
		if _, err := tc.s.Recover(smrp.NodeDown(tc.outside)); !errors.Is(err, smrp.ErrOutsideDomains) {
			t.Errorf("%s: Recover(node in no domain) = %v, want ErrOutsideDomains", tc.name, err)
		}
		if _, err := tc.s.RecoverSet(nil); !errors.Is(err, smrp.ErrBadSchedule) {
			t.Errorf("%s: RecoverSet(nil) = %v, want ErrBadSchedule", tc.name, err)
		}
	}
}
