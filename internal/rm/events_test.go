package rm

import (
	"errors"
	"math/rand"
	"testing"

	"adaptrm/internal/api"
	"adaptrm/internal/schedule"
)

// collect installs a recording sink on a fresh manager.
func collect(t *testing.T, opt Options) (*Manager, *[]api.Event) {
	t.Helper()
	m := newMgr(t, opt)
	var evs []api.Event
	m.SetEventSink(func(ev api.Event) { evs = append(evs, ev) })
	return m, &evs
}

// countEvents folds an event log into the admission counters it implies.
func countEvents(evs []api.Event) (admitted, rejected, completed, cancelled, missed int) {
	for _, ev := range evs {
		switch ev.Type {
		case api.EventJobAdmitted:
			admitted++
		case api.EventJobRejected:
			rejected++
		case api.EventJobCompleted:
			completed++
			if ev.Missed {
				missed++
			}
		case api.EventJobCancelled:
			cancelled++
		}
	}
	return
}

// checkSeq asserts the log carries strictly monotone gap-free sequence
// numbers starting at 1.
func checkSeq(t *testing.T, evs []api.Event) {
	t.Helper()
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d: seq = %d, want %d (log %+v)", i, ev.Seq, i+1, evs)
		}
	}
}

// TestEventLifecycle runs the motivational scenario and checks the full
// event story: admissions with schedule changes, starts, completions —
// in order, gap-free, with faithful payloads.
func TestEventLifecycle(t *testing.T) {
	m, evs := collect(t, Options{})
	id1, ok, _, err := m.Submit(0, "lambda1", 9)
	if err != nil || !ok {
		t.Fatalf("λ1: %v", err)
	}
	if _, ok, _, err = m.Submit(1, "lambda2", 5); err != nil || !ok {
		t.Fatalf("λ2: %v", err)
	}
	if _, err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	checkSeq(t, *evs)
	var types []api.EventType
	for _, ev := range *evs {
		types = append(types, ev.Type)
	}
	// λ1 admitted+schedule, then λ1 started while advancing to t=1 for
	// λ2's submission (an interior advance — no clock event), λ2
	// admitted+schedule, then both run to completion across two explicit
	// Drain advances, each closing with ClockAdvanced.
	want := []api.EventType{
		api.EventJobAdmitted, api.EventScheduleChanged,
		api.EventJobStarted,
		api.EventJobAdmitted, api.EventScheduleChanged,
		api.EventJobStarted, api.EventJobCompleted, api.EventClockAdvanced,
		api.EventJobCompleted, api.EventClockAdvanced,
	}
	if len(types) != len(want) {
		t.Fatalf("event types = %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("event %d = %v, want %v (log %v)", i, types[i], want[i], types)
		}
	}
	first := (*evs)[0]
	if first.JobID != id1 || first.App != "lambda1" || first.Deadline != 9 || first.At != 0 {
		t.Errorf("admission payload = %+v", first)
	}
	// Event times never run backwards.
	for i := 1; i < len(*evs); i++ {
		if (*evs)[i].At < (*evs)[i-1].At-schedule.Eps {
			t.Errorf("event %d time %v precedes %v", i, (*evs)[i].At, (*evs)[i-1].At)
		}
	}
	admitted, rejected, completed, cancelled, missed := countEvents(*evs)
	st := m.Stats()
	if admitted != st.Accepted || rejected != st.Rejected || completed != st.Completed ||
		cancelled != st.Cancelled || missed != st.DeadlineMisses {
		t.Errorf("event counts (%d/%d/%d/%d/%d) disagree with stats %+v",
			admitted, rejected, completed, cancelled, missed, st)
	}
}

// TestEventRejection: a clean rejection emits JobRejected with the
// request payload and no schedule change; erroneous requests (unknown
// app, bad deadline) emit nothing.
func TestEventRejection(t *testing.T) {
	m, evs := collect(t, Options{})
	if _, ok, _, err := m.Submit(0, "lambda1", 9); err != nil || !ok {
		t.Fatalf("first λ1: %v", err)
	}
	n := len(*evs)
	if _, ok, _, err := m.Submit(0, "lambda1", 9); err != nil || ok {
		t.Fatalf("second λ1 not rejected: %v", err)
	}
	tail := (*evs)[n:]
	if len(tail) != 1 || tail[0].Type != api.EventJobRejected || tail[0].App != "lambda1" || tail[0].JobID != 0 {
		t.Fatalf("rejection events = %+v", tail)
	}
	n = len(*evs)
	if _, _, _, err := m.Submit(0, "nope", 9); !errors.Is(err, ErrUnknownApp) {
		t.Fatalf("unknown app: %v", err)
	}
	if _, _, _, err := m.Submit(1, "lambda1", 1); !errors.Is(err, ErrBadDeadline) {
		t.Fatalf("bad deadline: %v", err)
	}
	if len(*evs) != n {
		t.Errorf("erroneous requests emitted events: %+v", (*evs)[n:])
	}
}

// TestEventCancel: cancelling an active job emits JobCancelled plus
// ScheduleChanged and bumps the Cancelled counter; cancelling a job that
// already completed returns ErrNoSuchJob and mutates nothing — no event,
// no counter (the double-counting audit of the cancel path).
func TestEventCancel(t *testing.T) {
	m, evs := collect(t, Options{})
	id, ok, _, err := m.Submit(0, "lambda1", 9)
	if err != nil || !ok {
		t.Fatalf("λ1: %v", err)
	}
	n := len(*evs)
	if err := m.Cancel(id); err != nil {
		t.Fatal(err)
	}
	tail := (*evs)[n:]
	if len(tail) != 2 || tail[0].Type != api.EventJobCancelled || tail[0].JobID != id ||
		tail[1].Type != api.EventScheduleChanged {
		t.Fatalf("cancel events = %+v", tail)
	}
	if st := m.Stats(); st.Cancelled != 1 {
		t.Fatalf("Cancelled = %d, want 1", st.Cancelled)
	}

	// A second cancel of the same (now gone) job: ErrNoSuchJob, nothing
	// mutated.
	before, nEv := m.Stats(), len(*evs)
	if err := m.Cancel(id); !errors.Is(err, ErrNoSuchJob) {
		t.Fatalf("re-cancel: %v, want ErrNoSuchJob", err)
	}
	if m.Stats() != before || len(*evs) != nEv {
		t.Errorf("re-cancel mutated state: stats %+v → %+v, %d new events", before, m.Stats(), len(*evs)-nEv)
	}

	// Same for a job that ran to completion.
	id2, ok, _, err := m.Submit(0, "lambda2", 5)
	if err != nil || !ok {
		t.Fatalf("λ2: %v", err)
	}
	if _, err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	before, nEv = m.Stats(), len(*evs)
	if err := m.Cancel(id2); !errors.Is(err, ErrNoSuchJob) {
		t.Fatalf("cancel completed job: %v, want ErrNoSuchJob", err)
	}
	if m.Stats() != before || len(*evs) != nEv {
		t.Errorf("cancel of completed job mutated state: stats %+v → %+v, %d new events",
			before, m.Stats(), len(*evs)-nEv)
	}
	checkSeq(t, *evs)
}

// TestEventBatchAdmission: the joint fast path admits every item with
// one ScheduleChanged (one activation — the event stream reflects real
// activations), and per-item payloads match the requests.
func TestEventBatchAdmission(t *testing.T) {
	m, evs := collect(t, Options{})
	verdicts, _, err := m.SubmitBatch(0, []api.BatchItem{
		{App: "lambda1", Deadline: 9},
		{App: "lambda2", Deadline: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range verdicts {
		if !v.Accepted || v.Err != nil {
			t.Fatalf("verdict %d = %+v", i, v)
		}
	}
	var types []api.EventType
	for _, ev := range *evs {
		types = append(types, ev.Type)
	}
	want := []api.EventType{api.EventJobAdmitted, api.EventJobAdmitted, api.EventScheduleChanged}
	if len(types) != len(want) {
		t.Fatalf("batch events = %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("batch events = %v, want %v", types, want)
		}
	}
	if (*evs)[0].JobID != verdicts[0].JobID || (*evs)[1].JobID != verdicts[1].JobID {
		t.Errorf("admission events %+v disagree with verdicts %+v", *evs, verdicts)
	}
	checkSeq(t, *evs)
}

// TestStatsLifecycleInvariant drives seeded random traffic — submits,
// advances, cancellations of live, completed and bogus job ids — and
// pins the lifecycle invariants after every operation:
//
//	Submitted = Accepted + Rejected
//	Accepted  = Completed + Cancelled + |active|
//
// plus, at the end, that the event log reconstructs the admission
// statistics exactly.
func TestStatsLifecycleInvariant(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		m, evs := collect(t, Options{})
		rng := rand.New(rand.NewSource(seed))
		apps := []string{"lambda1", "lambda2"}
		now := 0.0
		var ids []int // every id ever admitted, live or not
		check := func(opName string) {
			t.Helper()
			st := m.Stats()
			active := len(m.ActiveJobs())
			if st.Submitted != st.Accepted+st.Rejected {
				t.Fatalf("seed %d after %s: Submitted %d ≠ Accepted %d + Rejected %d",
					seed, opName, st.Submitted, st.Accepted, st.Rejected)
			}
			if st.Accepted != st.Completed+st.Cancelled+active {
				t.Fatalf("seed %d after %s: Accepted %d ≠ Completed %d + Cancelled %d + active %d",
					seed, opName, st.Accepted, st.Completed, st.Cancelled, active)
			}
		}
		for i := 0; i < 120; i++ {
			switch op := rng.Intn(4); op {
			case 0, 1: // submit
				app := apps[rng.Intn(len(apps))]
				id, ok, _, err := m.Submit(now, app, now+1+rng.Float64()*9)
				if err != nil {
					t.Fatalf("seed %d submit: %v", seed, err)
				}
				if ok {
					ids = append(ids, id)
				}
				check("submit")
			case 2: // advance
				now += rng.Float64() * 3
				if _, err := m.AdvanceTo(now); err != nil {
					t.Fatalf("seed %d advance: %v", seed, err)
				}
				check("advance")
			case 3: // cancel a historical, live, or bogus id
				id := 999
				if len(ids) > 0 && rng.Intn(4) > 0 {
					id = ids[rng.Intn(len(ids))]
				}
				if err := m.Cancel(id); err != nil && !errors.Is(err, ErrNoSuchJob) {
					t.Fatalf("seed %d cancel: %v", seed, err)
				}
				check("cancel")
			}
		}
		if _, err := m.Drain(); err != nil {
			t.Fatalf("seed %d drain: %v", seed, err)
		}
		check("drain")
		checkSeq(t, *evs)
		admitted, rejected, completed, cancelled, missed := countEvents(*evs)
		st := m.Stats()
		if admitted != st.Accepted || rejected != st.Rejected || completed != st.Completed ||
			cancelled != st.Cancelled || missed != st.DeadlineMisses {
			t.Errorf("seed %d: event counts (%d/%d/%d/%d/%d) disagree with stats %+v",
				seed, admitted, rejected, completed, cancelled, missed, st)
		}
	}
}
