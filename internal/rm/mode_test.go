package rm

import (
	"errors"
	"testing"

	"adaptrm/internal/api"
	"adaptrm/internal/control"
	"adaptrm/internal/core"
	"adaptrm/internal/job"
	"adaptrm/internal/motiv"
	"adaptrm/internal/platform"
	"adaptrm/internal/sched"
	"adaptrm/internal/schedule"
)

// countingScheduler wraps the exact scheduler, counting activations, so
// a test can observe which of the main/fallback pair took a decision.
func countingScheduler(id string, n *int) sched.Scheduler {
	inner := core.New()
	return sched.Func{ID: id, F: func(jobs job.Set, plat platform.Platform, t float64) (*schedule.Schedule, error) {
		*n++
		return inner.Schedule(jobs, plat, t)
	}}
}

func TestSetModeEmitsEventOnce(t *testing.T) {
	m, evs := collect(t, Options{})
	m.SetMode(control.ModeHeuristicOnly)
	m.SetMode(control.ModeHeuristicOnly) // unchanged: no event
	m.SetMode(control.ModeNormal)
	if m.Mode() != control.ModeNormal {
		t.Fatalf("mode = %v, want normal", m.Mode())
	}
	var got []api.Event
	for _, ev := range *evs {
		if ev.Type == api.EventModeChanged {
			got = append(got, ev)
		}
	}
	if len(got) != 2 {
		t.Fatalf("mode events = %d, want 2 (repeat SetMode must be silent)", len(got))
	}
	if got[0].Payload != "heuristic_only" || got[1].Payload != "normal" {
		t.Fatalf("payloads = %q, %q", got[0].Payload, got[1].Payload)
	}
}

func TestDegradedModeUsesFallback(t *testing.T) {
	var mainN, fbN int
	m, err := New(motiv.Platform(), motiv.Library(), countingScheduler("main", &mainN),
		Options{Fallback: countingScheduler("fb", &fbN)})
	if err != nil {
		t.Fatal(err)
	}

	if _, ok, _, err := m.Submit(0, "lambda1", 9); err != nil || !ok {
		t.Fatalf("normal-mode submit: ok=%v err=%v", ok, err)
	}
	if mainN != 1 || fbN != 0 {
		t.Fatalf("normal mode activations main=%d fb=%d, want 1/0", mainN, fbN)
	}

	m.SetMode(control.ModeHeuristicOnly)
	if _, ok, _, err := m.Submit(1, "lambda2", 8); err != nil || !ok {
		t.Fatalf("degraded submit: ok=%v err=%v", ok, err)
	}
	if mainN != 1 || fbN != 1 {
		t.Fatalf("degraded activations main=%d fb=%d, want 1/1", mainN, fbN)
	}

	m.SetMode(control.ModeNormal)
	if _, err := m.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	now := m.Now()
	if _, ok, _, err := m.Submit(now, "lambda1", now+9); err != nil || !ok {
		t.Fatalf("recovered submit: ok=%v err=%v", ok, err)
	}
	if mainN != 2 || fbN != 1 {
		t.Fatalf("recovered activations main=%d fb=%d, want 2/1", mainN, fbN)
	}
}

func TestDegradedModeWithoutFallbackKeepsScheduler(t *testing.T) {
	var mainN int
	m, err := New(motiv.Platform(), motiv.Library(), countingScheduler("main", &mainN), Options{})
	if err != nil {
		t.Fatal(err)
	}
	m.SetMode(control.ModeHeuristicOnly)
	if _, ok, _, err := m.Submit(0, "lambda1", 9); err != nil || !ok {
		t.Fatalf("submit: ok=%v err=%v", ok, err)
	}
	if mainN != 1 {
		t.Fatalf("main activations = %d, want 1 (no fallback configured)", mainN)
	}
}

func TestSnapshotCarriesMode(t *testing.T) {
	m := newMgr(t, Options{})
	if s := m.Snapshot(); s.Mode != "" {
		t.Fatalf("normal-mode snapshot carries mode %q", s.Mode)
	}
	m.SetMode(control.ModeShedding)
	s := m.Snapshot()
	if s.Mode != "shedding" {
		t.Fatalf("snapshot mode = %q, want shedding", s.Mode)
	}

	fresh := newMgr(t, Options{})
	if err := fresh.Restore(s); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if fresh.Mode() != control.ModeShedding {
		t.Fatalf("restored mode = %v, want shedding", fresh.Mode())
	}

	// A manager already moved off ModeNormal is not fresh.
	dirty := newMgr(t, Options{})
	dirty.SetMode(control.ModeHeuristicOnly)
	if err := dirty.Restore(m.Snapshot()); !errors.Is(err, ErrRestore) {
		t.Fatalf("restore into degraded manager: %v, want ErrRestore", err)
	}

	// An unknown mode name in the wire form is rejected.
	bad := *s
	bad.Mode = "bogus"
	if err := newMgr(t, Options{}).Restore(&bad); err == nil {
		t.Fatal("bogus snapshot mode accepted")
	}
}

func TestReplayModeVerbatim(t *testing.T) {
	m, evs := collect(t, Options{})
	if err := m.ReplayMode(3.5, "shedding"); err != nil {
		t.Fatal(err)
	}
	if m.Mode() != control.ModeShedding {
		t.Fatalf("mode = %v, want shedding", m.Mode())
	}
	last := (*evs)[len(*evs)-1]
	if last.Type != api.EventModeChanged || last.At != 3.5 || last.Payload != "shedding" {
		t.Fatalf("replayed event = %+v", last)
	}
	if err := m.ReplayMode(4, "bogus"); err == nil {
		t.Fatal("bogus payload accepted")
	}
}
