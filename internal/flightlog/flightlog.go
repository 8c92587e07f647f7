// Package flightlog is the bounded in-memory postmortem log of the
// daemon: a fixed-capacity ring of structured records — device
// lifecycle events tailed from the fleet's watch stream, HTTP
// request/outcome lines from the front-end, and free-form server
// markers (startup, shutdown, signals). When something goes wrong the
// last N entries are the flight recorder: GET /debug/flightlog dumps
// them as JSON, and rmserve dumps them to stderr on SIGQUIT.
//
// The ring is deliberately dumb: a mutex, a slice, an overwrite
// pointer. Appends are O(1) with no allocation beyond what the record
// itself carries, old entries are overwritten silently (Total keeps
// the lifetime count so a dump shows how much history scrolled away),
// and snapshots copy out under the lock so readers never block writers
// for long. It holds structured records rather than formatted text so
// the dump stays machine-readable.
package flightlog

import (
	"context"
	"encoding/json"
	"io"
	"sync"
	"time"

	"adaptrm/internal/api"
)

// Record kinds. Kind is an open string set — new record sources pick a
// new kind rather than growing an enum — but the bundled producers use
// these three.
const (
	// KindEvent is a device lifecycle event tailed from the watch hub.
	KindEvent = "event"
	// KindHTTP is one served HTTP request (route, status, duration).
	KindHTTP = "http"
	// KindServer is a server-level marker: startup, shutdown, signal.
	KindServer = "server"
)

// Record is one flight-log entry. Only the fields matching its Kind
// are populated; the zero values of the rest are omitted from JSON.
type Record struct {
	// Wall is the wall-clock stamp; Append fills it when zero.
	Wall time.Time `json:"wall"`
	// Kind discriminates the record (KindEvent, KindHTTP, KindServer).
	Kind string `json:"kind"`
	// Route and Status describe an HTTP record; Duration its service
	// time.
	Route    string        `json:"route,omitempty"`
	Status   int           `json:"status,omitempty"`
	Duration time.Duration `json:"duration_ns,omitempty"`
	// Detail carries free-form context (server markers, error text).
	Detail string `json:"detail,omitempty"`
	// Event is the device lifecycle event of a KindEvent record.
	Event *api.Event `json:"event,omitempty"`
}

// Log is the bounded postmortem ring. The zero value is unusable; make
// one with New.
type Log struct {
	mu    sync.Mutex
	buf   []Record
	head  int // index of the oldest retained record
	n     int // retained count
	total uint64
	now   func() time.Time
	aux   map[string]func() any
}

// DefaultCapacity is the ring size rmserve uses unless told otherwise.
const DefaultCapacity = 2048

// New builds a log retaining the last capacity records (≤ 0 falls back
// to DefaultCapacity).
func New(capacity int) *Log {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Log{buf: make([]Record, capacity), now: time.Now}
}

// Append records r, overwriting the oldest entry when full. A zero
// Wall is stamped with the current time; tests pass an explicit stamp
// for determinism.
func (l *Log) Append(r Record) {
	l.mu.Lock()
	if r.Wall.IsZero() {
		r.Wall = l.now()
	}
	if l.n == len(l.buf) {
		l.buf[l.head] = r
		l.head = (l.head + 1) % len(l.buf)
	} else {
		l.buf[(l.head+l.n)%len(l.buf)] = r
		l.n++
	}
	l.total++
	l.mu.Unlock()
}

// Len returns the retained record count.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Total returns the lifetime record count, including overwritten ones.
func (l *Log) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Snapshot copies out the newest n retained records, oldest first
// (n ≤ 0 or n > retained: all of them).
func (l *Log) Snapshot(n int) []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n <= 0 || n > l.n {
		n = l.n
	}
	out := make([]Record, n)
	start := l.n - n
	for i := range out {
		out[i] = l.buf[(l.head+start+i)%len(l.buf)]
	}
	return out
}

// SetAux attaches a named auxiliary status section to every dump: fn
// is evaluated at dump time (SIGQUIT, GET /debug/flightlog) and its
// result rides along under Aux[name]. rmserve hooks the WAL writer's
// status here so a postmortem shows where persistence stood. A nil fn
// removes the section.
func (l *Log) SetAux(name string, fn func() any) {
	l.mu.Lock()
	if l.aux == nil {
		l.aux = make(map[string]func() any)
	}
	if fn == nil {
		delete(l.aux, name)
	} else {
		l.aux[name] = fn
	}
	l.mu.Unlock()
}

// Dump is the JSON wire form of a flight-log snapshot.
type Dump struct {
	// Total counts every record ever appended; Retained how many the
	// ring still holds; Records the dumped tail, oldest first.
	Total    uint64   `json:"total"`
	Retained int      `json:"retained"`
	Records  []Record `json:"records"`
	// Aux holds the point-in-time auxiliary sections (SetAux), e.g. the
	// WAL writer's position under "wal".
	Aux map[string]any `json:"aux,omitempty"`
}

// WriteJSON dumps the newest n records (n ≤ 0: all retained) as one
// JSON document, auxiliary sections included.
func (l *Log) WriteJSON(w io.Writer, n int) error {
	recs := l.Snapshot(n)
	l.mu.Lock()
	d := Dump{Total: l.total, Retained: l.n, Records: recs}
	fns := make(map[string]func() any, len(l.aux))
	for name, fn := range l.aux {
		fns[name] = fn
	}
	l.mu.Unlock()
	// Aux callbacks run outside the lock: they reach into other
	// subsystems (the WAL writer takes its own locks) and must not be
	// able to stall appends.
	if len(fns) > 0 {
		d.Aux = make(map[string]any, len(fns))
		for name, fn := range fns {
			d.Aux[name] = fn()
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// Tail subscribes to a Service's watch stream (the whole fleet — every
// device's stream) and appends each event as a KindEvent record until
// ctx ends or the service shuts down. It is the wiring that turns the fleet's
// per-device watch streams into the postmortem log; run it in its own
// goroutine. The watch buffer is sized generously because a lagging
// tail loses history, but loss still surfaces honestly: an overflow
// arrives as an EventLagged event and is logged like any other.
func Tail(ctx context.Context, l *Log, svc api.Service) error {
	ch, err := svc.Watch(ctx, api.WatchRequest{Buffer: 4096})
	if err != nil {
		return err
	}
	for ev := range ch {
		e := ev
		l.Append(Record{Kind: KindEvent, Event: &e})
	}
	return nil
}
