package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"smrp/internal/server"
	"smrp/internal/topology"
)

// BenchSummary is the machine-readable wall-clock record the bench harness
// emits: one entry per (figure, worker count) pair, so parallel-runner
// speedups can be tracked across machines and commits.
type BenchSummary struct {
	// Generated is the UTC timestamp of the measurement.
	Generated string `json:"generated"`
	// CPUs is runtime.NumCPU() on the measuring machine — the hard ceiling on
	// any real speedup.
	CPUs int `json:"cpus"`
	// GoVersion identifies the toolchain.
	GoVersion string `json:"go_version"`
	// Entries are the timed figure regenerations.
	Entries []BenchEntry `json:"entries"`
}

// BenchEntry times one figure regeneration at one worker count.
type BenchEntry struct {
	Figure      string  `json:"figure"`
	Scenarios   int     `json:"scenarios"` // trials dispatched to the runner
	Workers     int     `json:"workers"`
	WallSeconds float64 `json:"wall_seconds"`

	// Throughput rates, recorded only for figures that process membership
	// events ("throughput", "serve"): deterministic event counts divided by
	// this machine's wall clock.
	JoinsPerSec  float64 `json:"joins_per_sec,omitempty"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	// SettledPerEvent is deterministic, machine-independent settled-node
	// work: per recovery event at the study's largest N ("megascale-flat"
	// grows with N, "megascale-hier" stays domain-bounded; "multigroup"), or
	// per join by the candidate sweeps ("throughput").
	SettledPerEvent float64 `json:"settled_per_event,omitempty"`
	// MemBytes is the arm's deterministic memory accounting at the largest
	// N: the routed-over graph plus, for the hierarchy, what its per-domain
	// views own ("megascale-*"), or the fleet's mean per-group
	// standing bytes ("multigroup").
	MemBytes int64 `json:"mem_bytes,omitempty"`

	// RecoveryDistance is the arm's mean per-member RD_R and StateBytes its
	// mean precomputed-state footprint per trial — the recovery-strategy
	// testbed's deterministic comparison axes ("strategies-*" only; SMRP
	// keeps no precomputed state, so its state_bytes is omitted as zero).
	RecoveryDistance float64 `json:"recovery_distance,omitempty"`
	StateBytes       int64   `json:"state_bytes,omitempty"`
}

// repoRoot is the repository root as seen from this package's directory,
// where go test runs it, and benchSummaryFile the summary committed there.
const (
	repoRoot         = "../.."
	benchSummaryFile = repoRoot + "/BENCH_SUMMARY.json"
)

// benchFigures are the rows of the study table the summary times for wall
// clock alone, each with the size it runs at. Scenario counts are the number
// of independent trials the parallel runner dispatches.
var benchFigures = []struct {
	name      string // "figure" in the record
	study     string // the row of Studies, as -fig takes it
	scenarios int
	args      Args
}{
	{"fig7", "7", 5, Args{}},
	{"fig8", "8", 100, Args{Topos: 5, Sets: 5}}, // 25 scenarios × 4 sweep points
	{"latency", "latency", 10, Args{Runs: 10}},
	{"hierarchy", "hierarchy", 10, Args{Runs: 10}},
	{"churn", "churn", 5, Args{Runs: 5}},
	{"chaos", "chaos", 50, Args{Trials: 50}},
}

// TestWriteBenchSummary regenerates BENCH_SUMMARY.json. It is gated behind
// the SMRP_BENCH_SUMMARY environment variable so ordinary test runs stay
// fast:
//
//	SMRP_BENCH_SUMMARY=1 go test -run TestWriteBenchSummary ./internal/experiment/
//
// Set the variable to the output path: "1" selects the repository root's
// BENCH_SUMMARY.json, and a relative path is taken from the repository root
// too. Every figure runs at workers=1 and workers=4; rendered
// results are bit-identical across worker counts (see the determinism
// regression test), so only the wall clock differs. On a single-CPU machine
// the two timings will be roughly equal — the file records whatever this
// machine honestly measured.
func TestWriteBenchSummary(t *testing.T) {
	path := os.Getenv("SMRP_BENCH_SUMMARY")
	if path == "" {
		t.Skip("set SMRP_BENCH_SUMMARY=<path> to regenerate the bench summary")
	}
	if path == "1" {
		path = benchSummaryFile
	} else if !filepath.IsAbs(path) {
		path = filepath.Join(repoRoot, path)
	}
	sum := BenchSummary{
		Generated: time.Now().UTC().Format(time.RFC3339),
		CPUs:      runtime.NumCPU(),
		GoVersion: runtime.Version(),
	}
	for _, fig := range benchFigures {
		studies := Select(fig.study)
		if len(studies) != 1 {
			t.Fatalf("%s: no study %q in the table", fig.name, fig.study)
		}
		for _, workers := range []int{1, 4} {
			start := time.Now()
			if _, err := studies[0].Run(bg, RunConfig{Seed: benchSeed, Workers: workers}, fig.args); err != nil {
				t.Fatalf("%s (workers=%d): %v", fig.name, workers, err)
			}
			sum.Entries = append(sum.Entries, BenchEntry{
				Figure:      fig.name,
				Scenarios:   fig.scenarios,
				Workers:     workers,
				WallSeconds: time.Since(start).Seconds(),
			})
			t.Logf("%-10s workers=%d: %.2fs", fig.name, workers,
				sum.Entries[len(sum.Entries)-1].WallSeconds)
		}
	}

	// Sharded session throughput: 10 sessions on one shared topology and one
	// shared lock-free SPF cache. The rendered counters are byte-identical
	// across worker counts; joins/sec and events/sec are this machine's wall
	// clock over them, and settled-per-join is the deterministic
	// admission-work evidence (gated by the study's own test).
	const throughputSessions = 10
	for _, workers := range []int{1, 4} {
		start := time.Now()
		tr, err := RunThroughput(bg, RunConfig{Seed: benchSeed, Workers: workers}, throughputSessions)
		if err != nil {
			t.Fatalf("throughput (workers=%d): %v", workers, err)
		}
		wall := time.Since(start).Seconds()
		sum.Entries = append(sum.Entries, BenchEntry{
			Figure:          "throughput",
			Scenarios:       throughputSessions,
			Workers:         workers,
			WallSeconds:     wall,
			JoinsPerSec:     float64(tr.Joins) / wall,
			EventsPerSec:    float64(tr.Events) / wall,
			SettledPerEvent: tr.SettledPerJoin(),
		})
		t.Logf("throughput workers=%d: %.2fs (%.0f joins/sec, %.0f events/sec, %.1f settled/join)",
			workers, wall, float64(tr.Joins)/wall, float64(tr.Events)/wall, tr.SettledPerJoin())
	}

	// Megascale architecture comparison at CI-sized N: one timed run per
	// worker count emits a flat and a hierarchical entry sharing that run's
	// wall clock. The settled-per-event and byte counters come from the
	// largest N and are deterministic — the same numbers the megascale-smoke
	// CI gate asserts ratios over.
	megaSizes := []int{2000, 8000}
	for _, workers := range []int{1, 4} {
		start := time.Now()
		mr, err := RunMegascale(bg, RunConfig{Seed: benchSeed, Workers: workers}, megaSizes, 16, false)
		if err != nil {
			t.Fatalf("megascale (workers=%d): %v", workers, err)
		}
		wall := time.Since(start).Seconds()
		top := mr.Rows[len(mr.Rows)-1]
		sum.Entries = append(sum.Entries,
			BenchEntry{
				Figure: "megascale-flat", Scenarios: len(megaSizes), Workers: workers,
				WallSeconds:     wall,
				SettledPerEvent: top.Flat.SettledPerEvent(),
				MemBytes:        top.Flat.GraphBytes,
			},
			BenchEntry{
				Figure: "megascale-hier", Scenarios: len(megaSizes), Workers: workers,
				WallSeconds:     wall,
				SettledPerEvent: top.Hier.SettledPerEvent(),
				MemBytes:        top.Hier.GraphBytes + top.Hier.SessionBytes,
			})
		t.Logf("megascale  workers=%d: %.2fs (N=%d settled/event flat=%.1f hier=%.1f)",
			workers, wall, top.Target, top.Flat.SettledPerEvent(), top.Hier.SettledPerEvent())
	}

	// Million-node tier: the hierarchical arm alone (the flat control's
	// dense admission work is exactly what this tier retires) at N=10^6,
	// timed once at workers=4. Settled-per-event stays domain-bounded and
	// the byte counters are deterministic; the wall clock records what a
	// full generate/freeze/admit/recover cycle on a million-node graph
	// costs on this machine.
	{
		start := time.Now()
		hr, err := RunMegascale(bg, RunConfig{Seed: benchSeed, Workers: 4}, []int{1_000_000}, 8, true)
		if err != nil {
			t.Fatalf("megascale-1m: %v", err)
		}
		wall := time.Since(start).Seconds()
		top := hr.Rows[len(hr.Rows)-1]
		sum.Entries = append(sum.Entries, BenchEntry{
			Figure: "megascale-1m-hier", Scenarios: 1, Workers: 4,
			WallSeconds:     wall,
			SettledPerEvent: top.Hier.SettledPerEvent(),
			MemBytes:        top.Hier.GraphBytes + top.Hier.SessionBytes,
		})
		t.Logf("megascale-1m workers=4: %.2fs (settled/event %.1f)",
			wall, top.Hier.SettledPerEvent())
	}

	// Multigroup fleet: thousands of Zipf-profiled sparse sessions on one
	// shared frozen topology and one shared SPF cache, at the CI smoke
	// shape. Joins/sec is admitted receivers over this machine's wall
	// clock; the standing-bytes mean is deterministic.
	const mgGroups, mgMax, mgNodes = 200, 32, 5000
	for _, workers := range []int{1, 4} {
		start := time.Now()
		mg, err := RunMultigroup(bg, RunConfig{Seed: benchSeed, Workers: workers}, mgGroups, mgMax, mgNodes)
		if err != nil {
			t.Fatalf("multigroup (workers=%d): %v", workers, err)
		}
		wall := time.Since(start).Seconds()
		sum.Entries = append(sum.Entries, BenchEntry{
			Figure:          "multigroup",
			Scenarios:       mgGroups,
			Workers:         workers,
			WallSeconds:     wall,
			JoinsPerSec:     float64(mg.Members) / wall,
			EventsPerSec:    float64(mg.Events) / wall,
			SettledPerEvent: mg.SettledPerEvent(),
			MemBytes:        mg.BytesMean(),
		})
		t.Logf("multigroup workers=%d: %.2fs (%.0f joins/sec, mean standing %dB)",
			workers, wall, float64(mg.Members)/wall, mg.BytesMean())
	}

	// Recovery-strategy testbed: one timed run per worker count emits an
	// entry per arm sharing that run's wall clock. Recovery distance and
	// state bytes are deterministic (byte-identical across worker counts) —
	// the same numbers the strategies CI gate asserts over.
	const strategyTrials = 50
	for _, workers := range []int{1, 4} {
		start := time.Now()
		sr, err := RunStrategies(bg, RunConfig{Seed: benchSeed, Workers: workers}, strategyTrials)
		if err != nil {
			t.Fatalf("strategies (workers=%d): %v", workers, err)
		}
		wall := time.Since(start).Seconds()
		for _, arm := range sr.Arms {
			sum.Entries = append(sum.Entries, BenchEntry{
				Figure:           "strategies-" + arm.Name,
				Scenarios:        strategyTrials,
				Workers:          workers,
				WallSeconds:      wall,
				RecoveryDistance: arm.RD.Mean,
				StateBytes:       arm.StateBytes,
			})
		}
		t.Logf("strategies workers=%d: %.2fs (mean RD smrp=%.4f mrc=%.4f detour=%.4f)",
			workers, wall, sr.Arms[0].RD.Mean, sr.Arms[1].RD.Mean, sr.Arms[2].RD.Mean)
	}

	// Serving capacity: total HTTP joins completed across concurrent
	// sessions on one shared topology. Here workers means concurrent
	// sessions (client goroutines), not the experiment runner's pool, and
	// joins/sec = scenarios / wall_seconds.
	const serveSessions, joinsPer = 16, 64
	start := time.Now()
	if err := runServeCapacity(serveSessions, joinsPer); err != nil {
		t.Fatalf("serve: %v", err)
	}
	serveWall := time.Since(start).Seconds()
	sum.Entries = append(sum.Entries, BenchEntry{
		Figure:      "serve",
		Scenarios:   serveSessions * joinsPer,
		Workers:     serveSessions,
		WallSeconds: serveWall,
		JoinsPerSec: float64(serveSessions*joinsPer) / serveWall,
	})
	t.Logf("serve      workers=%d: %.2fs (%.0f joins/sec)", serveSessions,
		sum.Entries[len(sum.Entries)-1].WallSeconds,
		float64(serveSessions*joinsPer)/sum.Entries[len(sum.Entries)-1].WallSeconds)

	data, err := json.MarshalIndent(&sum, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d entries)", path, len(sum.Entries))
}

// runServeCapacity boots the smrp-serve control plane in-process and drives
// sessions concurrent client goroutines, each creating one session over the
// shared topology and issuing joinsPer HTTP joins. It is the workload behind
// the "serve" BENCH_SUMMARY entry.
func runServeCapacity(sessions, joinsPer int) error {
	g, err := topology.Waxman(topology.WaxmanConfig{
		N: 200, Alpha: 0.2, Beta: topology.DefaultBeta, EnsureConnected: true,
	}, topology.NewRNG(benchSeed))
	if err != nil {
		return err
	}
	reg := server.NewRegistry(g, server.RegistryConfig{})
	srv := server.New(reg, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, stop := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	defer func() {
		stop()
		<-served
	}()
	base := "http://" + ln.Addr().String()
	client := &http.Client{}

	post := func(path string, body any) (int, string, error) {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, "", err
		}
		resp, err := client.Post(base+path, "application/json", bytes.NewReader(b))
		if err != nil {
			return 0, "", err
		}
		defer resp.Body.Close()
		var out struct {
			ID string `json:"id"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out.ID, nil
	}

	errs := make(chan error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, id, err := post("/v1/sessions", map[string]any{"source": i})
			if err != nil || code != http.StatusCreated {
				errs <- fmt.Errorf("create %d: status %d err %v", i, code, err)
				return
			}
			joinURL := "/v1/sessions/" + id + "/join"
			for n := 1; n <= joinsPer; n++ {
				node := (i + n*3) % 200
				if node == i {
					continue
				}
				code, _, err := post(joinURL, map[string]any{"node": node})
				if err != nil {
					errs <- fmt.Errorf("join: %w", err)
					return
				}
				switch code {
				case http.StatusOK, http.StatusConflict, http.StatusUnprocessableEntity:
				default:
					errs <- fmt.Errorf("join session %s node %d: status %d", id, node, code)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// TestBenchSummaryRoundTrip keeps the committed BENCH_SUMMARY.json parseable:
// if the file exists it must decode into BenchSummary with sane fields.
func TestBenchSummaryRoundTrip(t *testing.T) {
	data, err := os.ReadFile(benchSummaryFile)
	if os.IsNotExist(err) {
		t.Skip("no committed BENCH_SUMMARY.json")
	}
	if err != nil {
		t.Fatal(err)
	}
	var sum BenchSummary
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatalf("BENCH_SUMMARY.json does not parse: %v", err)
	}
	if len(sum.Entries) == 0 {
		t.Fatal("BENCH_SUMMARY.json has no entries")
	}
	for _, e := range sum.Entries {
		if e.Figure == "" || e.Workers < 1 || e.Scenarios < 1 || e.WallSeconds <= 0 {
			t.Errorf("implausible entry: %+v", e)
		}
	}
}
