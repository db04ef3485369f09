package protocol

import "smrp/internal/eventsim"

// Engine exposes the driving engine (for scheduling and Run).
func (d *driver) Engine() *eventsim.Engine { return d.engine }
