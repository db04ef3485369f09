package eventsim

// At returns the time the event is scheduled for.
func (e *Event) At() Time { return e.at }
