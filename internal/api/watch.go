package api

import "context"

// EventType discriminates the lifecycle events of the watch protocol.
// This package is the definition: the runtime manager (package rm)
// emits these kinds directly, the fleet stamps the device and fans them
// out, and every transport — in-process fleet, SSE over HTTP, the
// write-ahead log — carries exactly these wire strings, plus the
// transport-level EventLagged marker. An event log is therefore
// replayable against any of them.
type EventType string

const (
	// EventJobAdmitted: a request was accepted; the job is now active.
	EventJobAdmitted EventType = "job_admitted"
	// EventJobRejected: a request was cleanly rejected (no feasible
	// schedule). Erroneous requests emit no event.
	EventJobRejected EventType = "job_rejected"
	// EventJobStarted: the job executed its first schedule fraction.
	EventJobStarted EventType = "job_started"
	// EventJobCompleted: the job finished; Missed flags a violation.
	EventJobCompleted EventType = "job_completed"
	// EventJobCancelled: the job was aborted while active.
	EventJobCancelled EventType = "job_cancelled"
	// EventScheduleChanged: the device's active schedule was replaced.
	EventScheduleChanged EventType = "schedule_changed"
	// EventScheduleSwapped: anytime refinement replaced the device's
	// schedule with a strictly cheaper one; Payload carries the full new
	// schedule so the event log stays a complete operation log.
	EventScheduleSwapped EventType = "schedule_swapped"
	// EventModeChanged: the degradation controller switched the device's
	// operating mode; Payload carries the new mode's wire name
	// ("normal", "heuristic_only", "shedding"), so the transition rides
	// the watch/WAL machinery like any lifecycle event and replay
	// restores it verbatim.
	EventModeChanged EventType = "mode_changed"
	// EventClockAdvanced: an explicit advance moved the device clock; At
	// carries the new time. Together with the admission events this makes
	// the stream a complete operation log — the durability layer replays
	// it to reconstruct device state byte-identically.
	EventClockAdvanced EventType = "clock_advanced"
	// EventLagged is the overflow marker: the subscriber consumed too
	// slowly and Dropped events were discarded from its buffer instead
	// of blocking the service. The stream continues with later events;
	// a consumer needing the gap reconnects with WatchRequest.FromSeq.
	// For a single-device watch, Seq carries the sequence number of the
	// first dropped event; an all-device subscription sets Device to -1
	// and aggregates the drop count across devices.
	EventLagged EventType = "lagged"
)

// Event is one device lifecycle event, both as the manager emits it and
// on the wire (AppendEvent encodes it, json.Unmarshal decodes it).
// Within a device, sequence numbers are strictly monotone starting at 1
// with no gaps, so a consumer can detect loss and resume from any
// position; different devices number independently. Every field is a
// plain value, so events compare with ==, which the recovery verifier
// and the watch rings rely on.
type Event struct {
	// Device is the fleet device the event belongs to (-1 on an
	// aggregated Lagged marker).
	Device int `json:"device"`
	// Seq is the per-device sequence number (on a Lagged marker: the
	// first dropped sequence number, 0 when aggregated).
	Seq uint64 `json:"seq,omitempty"`
	// Type is the event kind.
	Type EventType `json:"type"`
	// At is the virtual time of the event.
	At float64 `json:"at,omitempty"`
	// JobID is the subject job (admissions, starts, completions,
	// cancellations).
	JobID int `json:"job_id,omitempty"`
	// App names the requested application (admissions, rejections).
	App string `json:"app,omitempty"`
	// Deadline is the request's absolute deadline (admissions,
	// rejections).
	Deadline float64 `json:"deadline,omitempty"`
	// Missed flags a deadline violation on a completion.
	Missed bool `json:"missed,omitempty"`
	// Dropped counts the events a Lagged marker stands in for.
	Dropped int `json:"dropped,omitempty"`
	// Payload carries event-type-specific data: for ScheduleSwapped the
	// new schedule's segments as the JSON of []schedule.Segment, for
	// ModeChanged the mode's wire name. A string rather than a
	// structured field so Event stays comparable.
	Payload string `json:"payload,omitempty"`
}

// WatchRequest subscribes to the event stream.
type WatchRequest struct {
	// Device optionally restricts the stream to one device; nil streams
	// every device of the fleet.
	Device *int `json:"device,omitempty"`
	// FromSeq resumes a single-device stream: retained events with
	// Seq >= FromSeq are delivered (in order, without gaps against the
	// live stream) before live events. Requires Device; zero means
	// live-only. When the retention window no longer covers FromSeq the
	// stream opens with a Lagged marker for the evicted range.
	FromSeq uint64 `json:"from_seq,omitempty"`
	// Buffer overrides the per-subscriber buffer capacity in events
	// (0 = implementation default). Smaller buffers lag sooner;
	// implementations cap the value (the fleet at 65536), since the
	// request may come from an untrusted network client.
	Buffer int `json:"buffer,omitempty"`
}

// WatchService is the streaming extension of Service. Both bundled
// transports implement it: the in-process fleet fans events out through
// per-subscriber buffers, and the HTTP client consumes the daemon's
// Server-Sent-Events endpoint — the semantics (ordering, resume, lag)
// are identical, pinned by the cross-transport equivalence suite, so a
// later gRPC streaming binding has a fixed contract to meet.
type WatchService interface {
	Service
	// Watch subscribes to device lifecycle events. The returned channel
	// delivers events in per-device sequence order until the context
	// ends, the service shuts down (after final drain events), or — for
	// remote transports — the connection breaks; it is then closed. A
	// slow consumer never blocks the service: overflow discards events
	// and surfaces an EventLagged marker in-stream instead.
	Watch(ctx context.Context, req WatchRequest) (<-chan Event, error)
}
