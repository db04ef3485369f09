// Command bench is the repository's benchmark: four seed-taking workloads
// driven through the program's exported functions, reporting what a user
// sees (tracing off) or, in a separate traced run, a per-layer ledger. See
// README.md in this directory.
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bench --check                          verify outputs only, no clock
//	bench compare A.jsonl... -- B.jsonl... compare two sets of recorded runs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
)

const defaultSeed = 2005

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var opt options
	var trace int
	var check bool
	var recordPath string
	flag.StringVar(&opt.workload, "workload", "all", "workload to run, or all (one child process each)")
	flag.Int64Var(&opt.seed, "seed", defaultSeed, "seed of the schedule generators")
	flag.Float64Var(&opt.seconds, "seconds", 10, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1: report the per-layer metrics of a traced run instead of the end-to-end ones")
	flag.StringVar(&opt.scale, "scale", "full", "full or smoke")
	flag.StringVar(&opt.traceDir, "trace-dir", ".bench_build/trace", "where a traced run writes its spans (empty: nowhere)")
	flag.BoolVar(&check, "check", false, "verify every workload's outputs at the default seed and the next, without timing")
	flag.StringVar(&recordPath, "record", "", "append the run, with its settings, to this file as one JSON line")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	opt.trace = trace != 0
	opt.log = os.Stderr

	// One process, at most two threads of load, the collector at its
	// default pace: fixed so that two runs differ in the code only.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	debug.SetGCPercent(100)

	switch {
	case check:
		os.Exit(checkMain(opt))
	case opt.workload == "all":
		os.Exit(runAll())
	}
	run := runUntraced
	if opt.trace {
		run = runTraced
	}
	rep, err := run(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", opt.workload, err)
		os.Exit(1)
	}
	if recordPath != "" {
		if err := appendRecord(recordPath, opt, rep); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runAll runs every workload in a fresh child process of this binary, one
// after the other, passing the command line through.
func runAll() int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "== %s\n", w.name)
		cmd := exec.Command(self, append(append([]string(nil), os.Args[1:]...), "--workload", w.name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// checkMain verifies outputs with the clock off: every workload, at the
// default seed and the next, is resolved under the full set of checks and
// then replayed twice; digests must repeat and pinned ones must match.
func checkMain(opt options) int {
	bad := 0
	for _, w := range workloads {
		for _, seed := range []int64{defaultSeed, defaultSeed + 1} {
			o := opt
			o.workload, o.seed, o.log = w.name, seed, nil
			if err := checkOne(o); err != nil {
				fmt.Printf("FAIL %s seed %d: %v\n", w.name, seed, err)
				bad++
				continue
			}
			fmt.Printf("ok   %s seed %d\n", w.name, seed)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

func checkOne(opt options) error {
	ss, err := begin(opt)
	if err != nil {
		return err
	}
	e := ss.env
	defer e.close()
	r := &runner{sched: ss.sched, cal: ss.cal}
	var first *passResult
	for p := 0; p < 3; p++ {
		e.flushCaches()
		res, err := r.pass(e.primary, plainPass, p, passOpts{atEnd: ss.atEnd(e.primary)})
		if err != nil {
			return err
		}
		if res.failed > 0 {
			return fmt.Errorf("pass %d: %d operations failed, first: %v", p, res.failed, res.firstErr)
		}
		if res.digest != ss.res.digest {
			return fmt.Errorf("pass %d: outputs %#x differ from the resolve pass %#x", p, res.digest, ss.res.digest)
		}
		// The first pass on a fresh hierarchy also builds the agent
		// chains; state repeats from the second on.
		if p == 1 {
			first = res
		}
		if p == 2 && res.state != first.state {
			return fmt.Errorf("state digest %#x, pass before %#x", res.state, first.state)
		}
	}
	if want, ok := pinnedDigests[pinKey(opt)]; ok && want != ss.res.digest {
		return fmt.Errorf("behaviour digest %#x, pinned %#x", ss.res.digest, want)
	}
	return nil
}

// record is one run as compare reads it back.
type record struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Scale      string             `json:"scale"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	Go         string             `json:"go"`
	NumCPU     int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Digest     string             `json:"digest"`
	Diag       map[string]float64 `json:"diag,omitempty"`
	Report     *report            `json:"report"`
}

func appendRecord(path string, opt options, rep *report) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(record{
		Workload: opt.workload, Seed: opt.seed, Scale: opt.scale, Seconds: opt.seconds, Trace: opt.trace,
		Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Digest: fmt.Sprintf("%#x", rep.digest), Diag: rep.diag, Report: rep,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
