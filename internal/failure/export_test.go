package failure

import (
	"slices"
)

// Sort orders the events by time (stable, preserving same-instant order).
func (s *Schedule) Sort() {
	slices.SortStableFunc(s.Events, func(a, b Event) int {
		switch {
		case a.At < b.At:
			return -1
		case a.At > b.At:
			return 1
		default:
			return 0
		}
	})
}
