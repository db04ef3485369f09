package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one recorded interval. Spans nest workload ⊃ pass ⊃ slice ⊃
// op.<kind> ⊃ probe.<layer>.<fn>; Parent is the ID of the span that caused
// this one (0 for the root's parent).
type span struct {
	ID       int32              `json:"id"`
	Parent   int32              `json:"parent"`
	Name     string             `json:"name"`
	Workload string             `json:"workload"`
	Pass     int                `json:"pass"`
	StartNS  int64              `json:"start_ns"`
	EndNS    int64              `json:"end_ns"`
	Latency  float64            `json:"latency_ns,omitempty"` // op spans: the timed call alone
	Counters map[string]float64 `json:"counters,omitempty"`
}

// maxSpans bounds what a run keeps in memory; later spans are counted, not
// stored.
const maxSpans = 400_000

// tracer keeps spans in memory and writes them when the run ends. A nil
// tracer records nothing, so untraced passes pay one nil check per call.
type tracer struct {
	mu       sync.Mutex // lanes of one segment record concurrently
	workload string
	t0       time.Time
	spans    []span
	dropped  int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) begin(name string, parent int32, pass int) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, Pass: pass, StartNS: time.Since(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) end(id int32) { t.finish(id, 0, nil) }

func (t *tracer) endOp(id int32, latencyNS float64) { t.finish(id, latencyNS, nil) }

func (t *tracer) endWith(id int32, counters map[string]float64) { t.finish(id, 0, counters) }

func (t *tracer) finish(id int32, latencyNS float64, counters map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNS = time.Since(t.t0).Nanoseconds()
	s.Latency = latencyNS
	s.Counters = counters
}

// write stores the spans as one JSON document under dir.
func (t *tracer) write(dir string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, t.workload+".spans.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Dropped  int    `json:"dropped_spans"`
		Spans    []span `json:"spans"`
	}{t.workload, seed, t.dropped, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
