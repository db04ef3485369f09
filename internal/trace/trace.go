// Package trace provides a structured event log for simulation runs: every
// protocol decision (joins, reshapes, failures, notices, recoveries) can be
// recorded with its virtual timestamp and replayed, filtered, or rendered —
// the observability layer behind cmd/smrp-trace.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"smrp/internal/eventsim"
	"smrp/internal/graph"
)

// Category classifies events for filtering.
type Category string

// Well-known categories emitted by the protocol layer.
const (
	CatJoin     Category = "join"
	CatLeave    Category = "leave"
	CatReshape  Category = "reshape"
	CatFailure  Category = "failure"
	CatNotice   Category = "notice"
	CatRecovery Category = "recovery"
	CatExpiry   Category = "expiry"
	CatPark     Category = "park"
	CatRepair   Category = "repair"
)

// Entry is one recorded event.
type Entry struct {
	At       eventsim.Time
	Category Category
	Node     graph.NodeID // primary subject (Invalid when not node-scoped)
	Message  string
}

// String renders the entry on one line.
func (e Entry) String() string {
	if e.Node == graph.Invalid {
		return fmt.Sprintf("t=%-10.3f %-9s %s", float64(e.At), e.Category, e.Message)
	}
	return fmt.Sprintf("t=%-10.3f %-9s node=%-4d %s", float64(e.At), e.Category, e.Node, e.Message)
}

// Log accumulates entries in insertion order. The zero value is usable.
// A nil *Log discards everything, so instrumented code never needs nil
// checks beyond passing the pointer through.
type Log struct {
	entries []Entry
	cap     int
}

// New returns a log bounded to the given number of entries (0 = unbounded).
// When full, the oldest entries are dropped.
func New(capacity int) *Log {
	return &Log{cap: capacity}
}

// Add records an event. Nil-safe.
func (l *Log) Add(at eventsim.Time, cat Category, node graph.NodeID, format string, args ...any) {
	if l == nil {
		return
	}
	l.entries = append(l.entries, Entry{
		At:       at,
		Category: cat,
		Node:     node,
		Message:  fmt.Sprintf(format, args...),
	})
	if l.cap > 0 && len(l.entries) > l.cap {
		drop := len(l.entries) - l.cap
		l.entries = append(l.entries[:0], l.entries[drop:]...)
	}
}

// Entries returns a copy of all entries in insertion order. Nil-safe.
func (l *Log) Entries() []Entry {
	if l == nil {
		return nil
	}
	out := make([]Entry, len(l.entries))
	copy(out, l.entries)
	return out
}

// WriteTo renders all entries, one per line, and reports bytes written.
func (l *Log) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, e := range l.Entries() {
		n, err := fmt.Fprintln(w, e.String())
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// String renders the whole log.
func (l *Log) String() string {
	var b strings.Builder
	if _, err := l.WriteTo(&b); err != nil {
		return ""
	}
	return b.String()
}

// Summary counts entries per category, rendered deterministically.
func (l *Log) Summary() string {
	if l == nil {
		return ""
	}
	counts := map[Category]int{}
	for _, e := range l.entries {
		counts[e.Category]++
	}
	cats := make([]string, 0, len(counts))
	for c := range counts {
		cats = append(cats, string(c))
	}
	sort.Strings(cats)
	parts := make([]string, 0, len(cats))
	for _, c := range cats {
		parts = append(parts, fmt.Sprintf("%s=%d", c, counts[Category(c)]))
	}
	return strings.Join(parts, " ")
}
