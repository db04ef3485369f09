package trace

import (
	"bytes"
	"strings"
	"testing"

	"smrp/internal/graph"
)

func TestLogBasics(t *testing.T) {
	l := New(0)
	l.Add(1, CatJoin, 5, "merger=%d", 2)
	l.Add(2, CatFailure, graph.Invalid, "link down")
	es := l.Entries()
	if len(es) != 2 {
		t.Fatalf("%d entries, want 2", len(es))
	}
	if es[0].Category != CatJoin || es[0].Node != 5 || es[0].Message != "merger=2" {
		t.Errorf("entry = %+v", es[0])
	}
	// Entries returns a copy.
	es[0].Message = "mutated"
	if l.Entries()[0].Message != "merger=2" {
		t.Error("Entries must copy")
	}
}

func TestLogNilSafe(t *testing.T) {
	var l *Log
	l.Add(1, CatJoin, 0, "x")
	if l.Entries() != nil || l.Summary() != "" {
		t.Error("nil log must be inert")
	}
}

func TestLogCapacity(t *testing.T) {
	l := New(3)
	for i := 0; i < 5; i++ {
		l.Add(0, CatJoin, graph.NodeID(i), "e%d", i)
	}
	if n := len(l.Entries()); n != 3 {
		t.Fatalf("%d entries, want capped 3", n)
	}
	if l.Entries()[0].Node != 2 {
		t.Errorf("oldest surviving entry = %+v, want node 2", l.Entries()[0])
	}
}

func TestLogRendering(t *testing.T) {
	l := New(0)
	l.Add(1.5, CatRecovery, 7, "rd=%0.1f", 2.0)
	l.Add(2, CatFailure, graph.Invalid, "boom")
	var buf bytes.Buffer
	n, err := l.WriteTo(&buf)
	if err != nil || n == 0 {
		t.Fatalf("WriteTo = %d, %v", n, err)
	}
	out := buf.String()
	if !strings.Contains(out, "recovery") || !strings.Contains(out, "node=7") {
		t.Errorf("render = %q", out)
	}
	if !strings.Contains(out, "boom") {
		t.Errorf("render = %q", out)
	}
	if l.String() != out {
		t.Error("String should equal WriteTo output")
	}
	sum := l.Summary()
	if sum != "failure=1 recovery=1" {
		t.Errorf("Summary = %q", sum)
	}
}
