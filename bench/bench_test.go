package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// Nobody edits the calibration kernel silently: every timing the benchmark
// ever reported was expressed in units of it.
func TestCalKernelChecksum(t *testing.T) {
	if got := newCalGraph().run(); got != calChecksum {
		t.Fatalf("calibration kernel checksum %#x, pinned %#x", got, uint64(calChecksum))
	}
}

// Bursts that take the processor away from a minority of chunks stretch the
// kernel's total and leave its short-scale readings where they were; a
// uniform slowdown moves every scale alike.
func TestCalReadingScales(t *testing.T) {
	const n, quiet = 368, 16e6
	profile := make([]float64, n)
	chunks := make([]float64, n)
	for i := range profile {
		profile[i] = (1 + float64(i%7)/10) / 1.3 / n // uneven chunks, summing to about 1
	}
	fill := func(slow float64, burstEvery int, burstNS float64) float64 {
		var total float64
		for i := range chunks {
			chunks[i] = profile[i] * quiet * slow
			if burstEvery > 0 && i%burstEvery == 0 {
				chunks[i] += burstNS
			}
			total += chunks[i]
		}
		return total
	}
	near := func(got, want float64) bool { return math.Abs(got-want) < 0.02*want }

	r := readingOf(chunks, profile, fill(1.4, 0, 0))
	for s, v := range r {
		if !near(v, r.total()) {
			t.Errorf("uniform slowdown: scale %d reads %v, the whole run %v", s, v, r.total())
		}
	}
	base := r.total()
	r = readingOf(chunks, profile, fill(1.4, 20, 1e6)) // a 1 ms burst in every 20th chunk
	if r.total() < 1.5*base {
		t.Fatalf("bursts added %v to a run of %v: the test wants more", r.total()-base, base)
	}
	if !near(r[0], base) || !near(r[1], base) {
		t.Errorf("bursts moved the short scales: %v and %v, quiet %v", r[0], r[1], base)
	}

	f := calFactor{f: calReading{1, 2, 3, 4, 5}, chunkNS: 50e3}
	for _, c := range []struct{ rawNS, want float64 }{{60e3, 1}, {150e3, 2}, {1e6, 3}, {5e6, 4}, {10e6, 5}} {
		if got := f.at(c.rawNS); got != c.want {
			t.Errorf("an operation of %v ns is normalised at scale %v, want %v", c.rawNS, got, c.want)
		}
	}
}

func checkMetrics(t *testing.T, rep *report, defs []metricDef, positive bool) {
	t.Helper()
	if !rep.Correct {
		t.Errorf("run reported incorrect outputs")
	}
	if rep.Attempted < 1 || rep.Failed != 0 {
		t.Errorf("attempted %d, failed %d", rep.Attempted, rep.Failed)
	}
	if len(rep.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, %d defined", len(rep.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := rep.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", d.name, m.Value)
		case positive && m.Value <= 0:
			t.Errorf("metric %s = %v, want > 0", d.name, m.Value)
		case m.Unit != d.unit:
			t.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
		}
	}
}

// Every workload at smoke scale, untraced and traced: each named metric is
// there, finite and unit-tagged, and (inside the run) the digests of all
// passes agree with each other and with direct calls.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			opt := options{workload: w.name, seed: defaultSeed, seconds: 0.1, scale: "smoke", log: testWriter{t}}
			rep, err := runUntraced(opt)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, rep, endToEnd, true)

			opt.trace = true
			rep, err = runTraced(opt)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, rep, perLayer, false)
		})
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(string(p))
	return len(p), nil
}

// The output check on its own: two seeds per workload, clock off.
func TestCheckMode(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []int64{defaultSeed, defaultSeed + 1} {
			if err := checkOne(options{workload: w.name, seed: seed, scale: "smoke"}); err != nil {
				t.Errorf("%s seed %d: %v", w.name, seed, err)
			}
		}
	}
}

// BENCHMARK.json and the tables in metrics.go say the same thing.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []jm                         `json:"end_to_end"`
		PerLayer  []jm                         `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, b.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []jm, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound) {
				t.Errorf("%s %s: bounds differ", kind, d.name)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: a per-layer metric has no bound", kind, d.name)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd, true)
	same("per_layer", b.PerLayer, perLayer, false)
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		c := make([]float64, len(base))
		for i, x := range base {
			c[i] = x * f
		}
		return c
	}
	noisy := []float64{100, 130, 80, 120, 90, 140, 70, 110, 95, 105}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"same", base, base, "lower", 0.1, "unchanged"},
		{"faster", base, scale(0.8), "lower", 0.1, "better"},
		{"faster, five pairs", base[:5], scale(0.8)[:5], "lower", 0.1, "unresolved"},
		{"slower beyond bound", base, scale(1.2), "lower", 0.1, "worse"},
		{"slower within bound", base, scale(1.05), "lower", 0.1, "unchanged"},
		{"throughput up", base, scale(1.3), "higher", 0.1, "better"},
		{"spread wider than bound", noisy, scale(1.05), "lower", 0.1, "unresolved"},
		{"exact, equal", []float64{7, 7, 7}, []float64{7, 7, 7}, "lower", 0.05, "unchanged"},
		{"exact, lower count", []float64{7, 7, 7}, []float64{6, 6, 6}, "lower", 0.05, "better"},
	} {
		if got, _, _ := verdict(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
