package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// compareMain implements `bench compare A... -- B...`: two sets of recorded
// runs (files written with --record), side A the parent and side B the
// change, one row per workload and metric.
func compareMain(args []string) int {
	var files [2][]string
	side := 0
	for _, a := range args {
		if a == "--" {
			side++
			if side > 1 {
				break
			}
			continue
		}
		files[side] = append(files[side], a)
	}
	if len(files[0]) == 0 || len(files[1]) == 0 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.jsonl... -- B.jsonl...")
		return 2
	}
	var sides [2][]record
	for i := range files {
		for _, path := range files[i] {
			rs, err := readRecords(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
				return 1
			}
			sides[i] = append(sides[i], rs...)
		}
	}
	fmt.Print(compareTable(sides[0], sides[1]))
	return 0
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var outv []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Report == nil {
			return nil, fmt.Errorf("%s: a line without a report", path)
		}
		outv = append(outv, r)
	}
	return outv, sc.Err()
}

// minPairs is how many pairs of runs a claimed gain must rest on.
const minPairs = 10

// verdict decides one row by the rule of the choosing-metrics guide, §8 and
// §6.5. a and b hold the runs in the order they were made; run i of a is
// paired with run i of b. better is "lower" or "higher"; bound is the share
// of a's median b may lose (0 for a metric that has none).
func verdict(a, b []float64, better string, bound float64) (string, int, int) {
	sign := 1.0
	if better == "lower" {
		sign = -1
	}
	medA, medB := median(a), median(b)
	iqrA := quantile(a, 0.75) - quantile(a, 0.25)
	wins, losses := 0, 0
	pairs := min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		switch d := sign * (b[i] - a[i]); {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	constant := func(xs []float64) bool {
		for _, x := range xs {
			if x != xs[0] {
				return false
			}
		}
		return true
	}
	gain := sign * (medB - medA)
	switch {
	case constant(a) && constant(b):
		// A count or a value the program computes: it repeats exactly, so
		// the two sides compare by equality.
		switch {
		case medA == medB:
			return "unchanged", wins, losses
		case gain > 0:
			return "better", wins, losses
		}
		return "worse", wins, losses
	case float64(wins) >= 0.9*float64(pairs) && math.Abs(medB-medA) > iqrA && gain > 0:
		if pairs < minPairs {
			return "unresolved", wins, losses // too few pairs to claim a gain
		}
		return "better", wins, losses
	case bound > 0 && iqrA > bound*math.Abs(medA):
		// The parent's own runs spread wider than the bound: nothing
		// short of a clean sweep resolves this row.
		if allBetter(a, b, sign) {
			return "better", wins, losses
		}
		return "unresolved", wins, losses
	case bound > 0 && -gain > bound*math.Abs(medA):
		return "worse", wins, losses
	}
	return "unchanged", wins, losses
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(a, b []float64, sign float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) <= 0 {
				return false
			}
		}
	}
	return true
}

func compareTable(a, b []record) string {
	type key struct{ workload, metric string }
	vals := [2]map[key][]float64{{}, {}}
	units := map[string]string{}
	for i, side := range [2][]record{a, b} {
		for _, r := range side {
			for name, m := range r.Report.Metrics {
				k := key{r.Workload, name}
				vals[i][k] = append(vals[i][k], m.Value)
				units[name] = m.Unit
			}
		}
	}
	defs := map[string]metricDef{}
	order := map[string]int{}
	for i, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		defs[d.name] = d
		order[d.name] = i
	}
	var keys []key
	for k := range vals[0] {
		if _, ok := vals[1][k]; ok {
			keys = append(keys, k)
		}
	}
	wlOrder := map[string]int{}
	for i, w := range workloads {
		wlOrder[w.name] = i
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return wlOrder[keys[i].workload] < wlOrder[keys[j].workload]
		}
		return order[keys[i].metric] < order[keys[j].metric]
	})
	s := fmt.Sprintf("%-14s %-30s %-6s %38s %38s %9s %-10s\n", "workload", "metric", "unit",
		"A median [q1, q3] (n)", "B median [q1, q3] (n)", "B wins", "verdict")
	for _, k := range keys {
		av, bv := vals[0][k], vals[1][k]
		d := defs[k.metric]
		v, wins, losses := verdict(av, bv, d.better, d.bound)
		side := func(xs []float64) string {
			return fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", quantile(xs, 0.5), quantile(xs, 0.25), quantile(xs, 0.75), len(xs))
		}
		s += fmt.Sprintf("%-14s %-30s %-6s %38s %38s %4d/%-4d %-10s\n", k.workload, k.metric, units[k.metric],
			side(av), side(bv), wins, wins+losses, v)
	}
	return s
}
