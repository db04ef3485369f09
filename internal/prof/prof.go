// Package prof wires Go's runtime profilers behind a uniform set of CLI
// flags (-cpuprofile, -memprofile, -mutexprofile, -blockprofile) so every
// binary in this repository exposes the same profiling workflow. The
// profiles answer different questions:
//
//   - cpu: where the cycles go (Dijkstra sweeps vs heap ops vs GC);
//   - mem: what retains heap at exit (megascale graphs, per-domain
//     views, SPF caches) — the check on the deterministic byte
//     accounting the megascale study reports;
//   - mutex: who waits on contended locks — the proof surface for the
//     lock-free SPF cache read path, which must not appear here at all;
//   - block: time parked on channel operations (actor mailboxes, worker
//     handoff), the tool that separates "slow because computing" from "slow
//     because waiting".
//
// Mutex and block profiling have a measurable cost when enabled, so each
// profiler activates only when its flag names an output file. See README.md
// "Profiling" for the analysis workflow.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags carries the profiler destinations registered on a FlagSet.
type Flags struct {
	cpu   *string
	mem   *string
	mutex *string
	block *string

	cpuOut *os.File
}

// Register adds -cpuprofile, -memprofile, -mutexprofile and -blockprofile
// to fs.
func Register(fs *flag.FlagSet) *Flags {
	return &Flags{
		cpu:   fs.String("cpuprofile", "", "write a CPU profile to this file"),
		mem:   fs.String("memprofile", "", "write an end-of-run heap profile to this file (after a forced GC, so it shows live retention)"),
		mutex: fs.String("mutexprofile", "", "write a mutex-contention profile to this file (rate 1: every contention event)"),
		block: fs.String("blockprofile", "", "write a blocking profile to this file (rate 1: every blocking event)"),
	}
}

// Start activates every profiler whose flag was set. Callers must pair it
// with Stop (normally via defer) so the profiles are actually written.
func (f *Flags) Start() error {
	if *f.cpu != "" {
		out, err := os.Create(*f.cpu)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(out); err != nil {
			out.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		f.cpuOut = out
	}
	if *f.mutex != "" {
		runtime.SetMutexProfileFraction(1)
	}
	if *f.block != "" {
		runtime.SetBlockProfileRate(1)
	}
	return nil
}

// Stop flushes and closes every active profile. Safe when nothing was
// started; returns the first write error so the caller can surface it.
func (f *Flags) Stop() error {
	var first error
	keep := func(err error) {
		if first == nil && err != nil {
			first = err
		}
	}
	if f.cpuOut != nil {
		pprof.StopCPUProfile()
		keep(f.cpuOut.Close())
		f.cpuOut = nil
	}
	if *f.mem != "" {
		// Collect garbage first so the profile reflects live retention
		// (graphs, trees, caches), not transient sweep scratch already
		// returned to pools.
		runtime.GC()
		keep(writeProfile("heap", "mem", *f.mem))
	}
	if *f.mutex != "" {
		keep(writeProfile("mutex", "mutex", *f.mutex))
		runtime.SetMutexProfileFraction(0)
	}
	if *f.block != "" {
		keep(writeProfile("block", "block", *f.block))
		runtime.SetBlockProfileRate(0)
	}
	return first
}

// writeProfile dumps the runtime profile named name to path in pprof binary
// form; flagName labels errors with the CLI flag that requested it.
func writeProfile(name, flagName, path string) error {
	p := pprof.Lookup(name)
	if p == nil {
		return fmt.Errorf("%sprofile: profile not registered", flagName)
	}
	out, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("%sprofile: %w", flagName, err)
	}
	if err := p.WriteTo(out, 0); err != nil {
		out.Close()
		return fmt.Errorf("%sprofile: %w", flagName, err)
	}
	return out.Close()
}
