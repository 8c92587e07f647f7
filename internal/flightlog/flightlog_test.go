package flightlog

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"adaptrm/internal/api"
)

func stamp(i int) time.Time { return time.Unix(int64(i), 0).UTC() }

func TestRingBoundedAndOrdered(t *testing.T) {
	l := New(4)
	for i := range 10 {
		l.Append(Record{Wall: stamp(i), Kind: KindServer, Detail: fmt.Sprintf("m%d", i)})
	}
	if l.Len() != 4 {
		t.Fatalf("retained %d, want 4", l.Len())
	}
	if l.Total() != 10 {
		t.Fatalf("total %d, want 10", l.Total())
	}
	got := l.Snapshot(0)
	for i, r := range got {
		if want := fmt.Sprintf("m%d", i+6); r.Detail != want {
			t.Errorf("snapshot[%d] = %q, want %q", i, r.Detail, want)
		}
	}
	// A limited snapshot keeps the newest entries.
	tail := l.Snapshot(2)
	if len(tail) != 2 || tail[0].Detail != "m8" || tail[1].Detail != "m9" {
		t.Errorf("snapshot(2) = %+v", tail)
	}
	// Requests past the retained count are clamped, not an error.
	if n := len(l.Snapshot(100)); n != 4 {
		t.Errorf("snapshot(100) has %d records", n)
	}
}

func TestAppendStampsWall(t *testing.T) {
	l := New(2)
	l.Append(Record{Kind: KindServer, Detail: "auto"})
	if l.Snapshot(0)[0].Wall.IsZero() {
		t.Fatal("Append did not stamp a zero Wall")
	}
	l.Append(Record{Wall: stamp(7), Kind: KindServer, Detail: "explicit"})
	if got := l.Snapshot(1)[0].Wall; !got.Equal(stamp(7)) {
		t.Fatalf("explicit stamp overwritten: %v", got)
	}
}

func TestWriteJSON(t *testing.T) {
	l := New(3)
	l.Append(Record{Wall: stamp(1), Kind: KindHTTP, Route: "/v1/submit", Status: 200, Duration: 42 * time.Microsecond})
	l.Append(Record{Wall: stamp(2), Kind: KindEvent, Event: &api.Event{Device: 1, Seq: 9, Type: api.EventJobAdmitted, JobID: 3}})
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf, 0); err != nil {
		t.Fatal(err)
	}
	var d Dump
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("dump is not valid JSON: %v\n%s", err, buf.String())
	}
	if d.Total != 2 || d.Retained != 2 || len(d.Records) != 2 {
		t.Fatalf("dump header %+v", d)
	}
	if d.Records[0].Route != "/v1/submit" || d.Records[0].Status != 200 {
		t.Errorf("http record %+v", d.Records[0])
	}
	ev := d.Records[1].Event
	if ev == nil || ev.Seq != 9 || ev.Type != api.EventJobAdmitted {
		t.Errorf("event record %+v", d.Records[1])
	}
}

// watchStub is a Service whose Watch delivers a fixed event script; the
// embedded nil Service stands in for the verbs Tail never calls.
type watchStub struct {
	api.Service
	events []api.Event
}

func (w watchStub) Watch(ctx context.Context, req api.WatchRequest) (<-chan api.Event, error) {
	ch := make(chan api.Event)
	go func() {
		defer close(ch)
		for _, ev := range w.events {
			select {
			case ch <- ev:
			case <-ctx.Done():
				return
			}
		}
	}()
	return ch, nil
}

func TestTailAppendsEvents(t *testing.T) {
	events := []api.Event{
		{Device: 0, Seq: 1, Type: api.EventJobAdmitted, JobID: 1},
		{Device: 0, Seq: 2, Type: api.EventJobCompleted, JobID: 1},
		{Device: 1, Seq: 1, Type: api.EventJobRejected},
	}
	l := New(8)
	if err := Tail(context.Background(), l, watchStub{events: events}); err != nil {
		t.Fatal(err)
	}
	got := l.Snapshot(0)
	if len(got) != len(events) {
		t.Fatalf("tailed %d records, want %d", len(got), len(events))
	}
	for i, r := range got {
		if r.Kind != KindEvent || r.Event == nil || *r.Event != events[i] {
			t.Errorf("record %d = %+v, want event %+v", i, r, events[i])
		}
	}
}
