package rm

import "adaptrm/internal/api"

// SetEventSink installs fn as the manager's event observer; nil removes
// it. The manager emits api.Event values of the api.Event* kinds with
// Device left zero — the fleet layer stamps it. Seq is assigned here:
// strictly monotone starting at 1 with no gaps, so a consumer can detect
// loss and resume a stream from any sequence number.
//
// The sink is invoked synchronously from within manager calls — it
// must not call back into the manager and should return quickly (fan-out
// layers buffer, they do not block here). Install the sink before
// traffic: events are only generated while one is installed, so sequence
// numbers count from the installation point and JobStarted tracking
// begins there too.
//
// Erroneous requests (unknown app, bad deadline) emit no event,
// mirroring their exclusion from the admission counters. Interior
// advances (the one a Submit or SubmitBatch performs before deciding)
// emit no EventClockAdvanced — the admission or rejection event already
// records the arrival time — so the event log captures exactly the
// operation sequence applied to the manager, which is what crash
// recovery (internal/durable) replays.
func (m *Manager) SetEventSink(fn func(api.Event)) {
	m.sink = fn
	if fn != nil && m.started == nil {
		m.started = make(map[int]bool)
	}
}

// emit assigns the next sequence number and hands the event to the sink.
// Without a sink it is a no-op, keeping the hot path untouched.
func (m *Manager) emit(ev api.Event) {
	if m.sink == nil {
		return
	}
	m.eventSeq++
	ev.Seq = m.eventSeq
	m.sink(ev)
}

// emitStarted emits JobStarted the first time a job accrues execution.
func (m *Manager) emitStarted(jobID int, at float64) {
	if m.sink == nil || m.started[jobID] {
		return
	}
	m.started[jobID] = true
	m.emit(api.Event{Type: api.EventJobStarted, At: at, JobID: jobID})
}

// forget drops a retired job from the started set.
func (m *Manager) forget(jobID int) {
	if m.started != nil {
		delete(m.started, jobID)
	}
}
