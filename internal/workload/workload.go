// Package workload generates deterministic membership-churn schedules for
// multicast sessions: receivers arrive and depart over virtual time,
// producing the "series of join and departure events" after which, per
// §3.2.3 of the paper, the multicast tree becomes skewed and tree reshaping
// pays off.
package workload

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"smrp/internal/graph"
	"smrp/internal/topology"
)

// EventKind distinguishes joins from leaves.
type EventKind int

// Event kinds. Enum starts at 1 so the zero value is invalid.
const (
	Join EventKind = iota + 1
	Leave
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case Join:
		return "join"
	case Leave:
		return "leave"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one membership change.
type Event struct {
	At   float64 // virtual time
	Kind EventKind
	Node graph.NodeID
}

// Schedule is a time-ordered churn schedule.
type Schedule struct {
	Events []Event
}

// Config parameterizes churn generation.
type Config struct {
	// Nodes is the population receivers are drawn from (the source must not
	// be included).
	Nodes []graph.NodeID
	// Horizon is the schedule length in virtual time.
	Horizon float64
	// ArrivalRate is the mean number of joins per unit time (exponential
	// inter-arrivals).
	ArrivalRate float64
	// MeanLifetime is the mean membership duration (exponential); 0 means
	// members never leave.
	MeanLifetime float64
	// InitialMembers join at time 0 before churn begins.
	InitialMembers int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if len(c.Nodes) == 0 {
		return errors.New("workload: empty node population")
	}
	if c.Horizon <= 0 {
		return errors.New("workload: horizon must be positive")
	}
	if c.ArrivalRate < 0 || c.MeanLifetime < 0 {
		return errors.New("workload: rates must be non-negative")
	}
	if c.InitialMembers < 0 || c.InitialMembers > len(c.Nodes) {
		return fmt.Errorf("workload: InitialMembers = %d out of [0, %d]", c.InitialMembers, len(c.Nodes))
	}
	return nil
}

// expVariate draws an exponential variate with the given mean.
func expVariate(rng *topology.RNG, mean float64) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return -mean * math.Log(u)
}

// Generate builds a churn schedule: InitialMembers join at t=0; further
// receivers arrive as a Poisson process; each member stays for an
// exponential lifetime (truncated at the horizon — no Leave is emitted for
// members alive at the end). A node rejoins only after having left.
func Generate(cfg Config, rng *topology.RNG) (*Schedule, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var events []Event
	free := append([]graph.NodeID(nil), cfg.Nodes...)
	// Deterministic shuffle of the candidate pool.
	for i := len(free) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		free[i], free[j] = free[j], free[i]
	}
	take := func() (graph.NodeID, bool) {
		if len(free) == 0 {
			return graph.Invalid, false
		}
		n := free[len(free)-1]
		free = free[:len(free)-1]
		return n, true
	}
	release := func(n graph.NodeID) { free = append(free, n) }

	var pending []departure
	schedule := func(n graph.NodeID, joinAt float64) {
		events = append(events, Event{At: joinAt, Kind: Join, Node: n})
		if cfg.MeanLifetime <= 0 {
			return
		}
		leaveAt := joinAt + expVariate(rng, cfg.MeanLifetime)
		if leaveAt < cfg.Horizon {
			pending = append(pending, departure{at: leaveAt, node: n})
		}
	}

	for i := 0; i < cfg.InitialMembers; i++ {
		n, ok := take()
		if !ok {
			break
		}
		schedule(n, 0)
	}
	if cfg.ArrivalRate > 0 {
		t := expVariate(rng, 1/cfg.ArrivalRate)
		for t < cfg.Horizon {
			// Release every departure that happens before this arrival so
			// the node pool reflects reality at time t.
			pending = flushDepartures(pending, t, &events, release)
			if n, ok := take(); ok {
				schedule(n, t)
			}
			t += expVariate(rng, 1/cfg.ArrivalRate)
		}
	}
	pending = flushDepartures(pending, cfg.Horizon, &events, release)
	_ = pending

	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return &Schedule{Events: events}, nil
}

// departure is a scheduled future Leave event.
type departure struct {
	at   float64
	node graph.NodeID
}

// flushDepartures emits every pending departure at or before the cutoff,
// returning the still-pending remainder.
func flushDepartures(pending []departure, cutoff float64, events *[]Event, release func(graph.NodeID)) []departure {
	var rest []departure
	for _, d := range pending {
		if d.at <= cutoff {
			*events = append(*events, Event{At: d.at, Kind: Leave, Node: d.node})
			release(d.node)
		} else {
			rest = append(rest, d)
		}
	}
	return rest
}
