package failure

import (
	"errors"
	"math"
	"testing"

	"smrp/internal/graph"
	"smrp/internal/topology"
)

func TestScheduleValidate(t *testing.T) {
	cases := []struct {
		name string
		s    Schedule
		ok   bool
	}{
		{name: "empty schedule", s: Schedule{}, ok: true},
		{name: "ordered", s: Schedule{Events: []Event{
			{At: 1, Failures: []Failure{LinkDown(0, 1)}},
			{At: 2, Repairs: []Failure{LinkDown(0, 1)}},
		}}, ok: true},
		{name: "empty event", s: Schedule{Events: []Event{{At: 1}}}, ok: false},
		{name: "NaN time", s: Schedule{Events: []Event{
			{At: math.NaN(), Failures: []Failure{LinkDown(0, 1)}},
		}}, ok: false},
		{name: "NaN after a time", s: Schedule{Events: []Event{
			{At: 1, Failures: []Failure{LinkDown(0, 1)}},
			{At: math.NaN(), Repairs: []Failure{LinkDown(0, 1)}},
		}}, ok: false},
		{name: "unordered", s: Schedule{Events: []Event{
			{At: 2, Failures: []Failure{LinkDown(0, 1)}},
			{At: 1, Failures: []Failure{LinkDown(1, 2)}},
		}}, ok: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.s.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
			if !tc.ok {
				if !errors.Is(err, ErrBadSchedule) {
					t.Fatalf("Validate() = %v, want ErrBadSchedule", err)
				}
			}
		})
	}
}

func TestScheduleMasks(t *testing.T) {
	s := Schedule{Events: []Event{
		{At: 1, Failures: []Failure{LinkDown(0, 1), NodeDown(3)}},
		{At: 2, Failures: []Failure{LinkDown(1, 2)}},
		{At: 3, Repairs: []Failure{LinkDown(0, 1), NodeDown(3), LinkDown(1, 2)}},
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if n, r := s.NumFailures(), s.NumRepairs(); n != 3 || r != 3 {
		t.Fatalf("NumFailures/NumRepairs = %d/%d, want 3/3", n, r)
	}
	m1 := s.MaskAt(1.5)
	if !m1.EdgeBlocked(0, 1) || !m1.NodeBlocked(3) || m1.EdgeBlocked(1, 2) {
		t.Fatalf("MaskAt(1.5) wrong: %+v", m1)
	}
	m2 := s.MaskAt(2)
	if !m2.EdgeBlocked(1, 2) {
		t.Fatal("MaskAt(2) should block 1-2")
	}
	if !s.CumulativeMask().IsEmpty() {
		t.Fatal("CumulativeMask should be empty after the full repair")
	}
}

func TestScheduleSortStable(t *testing.T) {
	s := Schedule{Events: []Event{
		{At: 5, Failures: []Failure{LinkDown(0, 1)}},
		{At: 1, Failures: []Failure{NodeDown(2)}},
		{At: 5, Repairs: []Failure{LinkDown(0, 1)}},
	}}
	s.Sort()
	if s.Events[0].At != 1 {
		t.Fatalf("Sort: first event at %v, want 1", s.Events[0].At)
	}
	// Stable: the t=5 failure event must precede the t=5 repair event.
	if len(s.Events[1].Failures) != 1 || len(s.Events[2].Repairs) != 1 {
		t.Fatal("Sort must be stable for same-instant events")
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("sorted schedule invalid: %v", err)
	}
}

func TestChaosConfigValidate(t *testing.T) {
	bad := []ChaosConfig{
		{Events: 0, MaxPerEvent: 1, Spacing: 1},
		{Events: 1, MaxPerEvent: 0, Spacing: 1},
		{Events: 1, MaxPerEvent: 1, Spacing: 0},
		{Events: 1, MaxPerEvent: 1, Spacing: 1, PNode: 1.5},
		{Events: 1, MaxPerEvent: 1, Spacing: math.NaN()},
		{Events: 1, MaxPerEvent: 1, Spacing: 1, Start: math.NaN()},
		{Events: 1, MaxPerEvent: 1, Spacing: 1, PSRLG: math.NaN()},
	}
	for i, c := range bad {
		if err := c.Validate(); !errors.Is(err, ErrBadSchedule) {
			t.Errorf("case %d: Validate() = %v, want ErrBadSchedule", i, err)
		}
	}
	if err := DefaultChaosConfig().Validate(); err != nil {
		t.Fatalf("DefaultChaosConfig invalid: %v", err)
	}
}

func TestRandomScheduleDeterministicAndSourceSafe(t *testing.T) {
	g, err := topology.Waxman(topology.WaxmanConfig{
		N: 40, Alpha: 0.3, Beta: 0.3, EnsureConnected: true,
	}, topology.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	source := graph.NodeID(0)
	victims := []graph.NodeID{5, 9, 13}

	draw := func(seed uint64) Schedule {
		s, err := RandomSchedule(g, source, victims, DefaultChaosConfig(), topology.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for seed := uint64(1); seed < 30; seed++ {
		a, b := draw(seed), draw(seed)
		if a.String() != b.String() {
			t.Fatalf("seed %d: RandomSchedule not deterministic:\n%s\n%s", seed, a, b)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, ev := range a.Events {
			for _, f := range ev.Failures {
				if f.Kind == NodeFailure && f.Node == source {
					t.Fatalf("seed %d: schedule fails the source: %s", seed, a)
				}
			}
		}
		// The default config repairs everything it broke.
		if !a.CumulativeMask().IsEmpty() {
			t.Fatalf("seed %d: cumulative mask not empty: %s", seed, a)
		}
	}
}
