package rm

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"adaptrm/internal/api"
	"adaptrm/internal/motiv"
	"adaptrm/internal/schedule"
	"adaptrm/internal/workload"
)

// stripWallClock removes the fields a batched activation legitimately
// changes (fewer scheduler invocations, different wall time) so the
// remaining statistics can be compared byte-for-byte.
func stripWallClock(s Stats) Stats {
	s.Activations = 0
	s.SchedulingTime = 0
	return s
}

// submitSequential replays a batch through individual Submit calls at
// the same time, returning per-request verdicts shaped like
// SubmitBatch's.
func submitSequential(m *Manager, t float64, reqs []api.BatchItem) ([]Verdict, []api.Completion, error) {
	verdicts := make([]Verdict, len(reqs))
	var first []api.Completion
	for i, r := range reqs {
		id, ok, done, err := m.Submit(t, r.App, r.Deadline)
		if i == 0 {
			first = done
		}
		switch {
		case errors.Is(err, ErrUnknownApp), errors.Is(err, ErrBadDeadline):
			verdicts[i].Err = err
		case err != nil:
			if errors.Is(err, ErrTimeBackwards) {
				return nil, done, err
			}
			verdicts[i].Err = err // scheduler hard failure
		default:
			verdicts[i].JobID, verdicts[i].Accepted = id, ok
		}
	}
	return verdicts, first, nil
}

// sameVerdicts compares verdict sequences by job id, acceptance and
// error identity (sentinel match).
func sameVerdicts(t *testing.T, got, want []Verdict) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("verdict count: got %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].JobID != want[i].JobID || got[i].Accepted != want[i].Accepted {
			t.Errorf("verdict %d: got %+v, want %+v", i, got[i], want[i])
		}
		gs, ws := got[i].Err, want[i].Err
		if (gs == nil) != (ws == nil) {
			t.Errorf("verdict %d error: got %v, want %v", i, gs, ws)
			continue
		}
		for _, sentinel := range []error{ErrUnknownApp, ErrBadDeadline} {
			if errors.Is(gs, sentinel) != errors.Is(ws, sentinel) {
				t.Errorf("verdict %d error class: got %v, want %v", i, gs, ws)
			}
		}
	}
}

// batchScript is one deterministic interaction step.
type batchScript struct {
	t    float64
	reqs []api.BatchItem
}

// runScript drives a script through either the batch or the sequential
// path on a fresh manager and returns the manager plus the verdict log.
func runScript(t *testing.T, script []batchScript, opt Options, batched bool) (*Manager, [][]Verdict) {
	t.Helper()
	m := newMgr(t, opt)
	var log [][]Verdict
	for _, s := range script {
		var vs []Verdict
		var err error
		if batched {
			vs, _, err = m.SubmitBatch(s.t, s.reqs)
		} else {
			vs, _, err = submitSequential(m, s.t, s.reqs)
		}
		if err != nil {
			t.Fatalf("script step at t=%v: %v", s.t, err)
		}
		log = append(log, vs)
	}
	return m, log
}

// TestSubmitBatchEquivalentToSequential drives mixed scripts — feasible
// bursts, over-subscribed bursts forcing the fallback, invalid items —
// through SubmitBatch and sequential Submit, asserting identical
// verdict sequences, job ids, admission statistics (minus activation
// counts), final schedules and executed timelines.
func TestSubmitBatchEquivalentToSequential(t *testing.T) {
	scripts := map[string][]batchScript{
		"feasible-burst": {
			{0, []api.BatchItem{{App: "lambda1", Deadline: 9}, {App: "lambda2", Deadline: 9}}},
			{12, []api.BatchItem{{App: "lambda2", Deadline: 20}, {App: "lambda1", Deadline: 25}}},
		},
		"oversubscribed-burst": {
			// One λ1 plus three λ2 by t=9 over-subscribes the 2L2B
			// device: the joint solve fails and the fallback decides one
			// by one, rejecting the overflow.
			{0, []api.BatchItem{{App: "lambda1", Deadline: 9}, {App: "lambda2", Deadline: 9}, {App: "lambda2", Deadline: 9}, {App: "lambda2", Deadline: 9}}},
			{30, []api.BatchItem{{App: "lambda1", Deadline: 45}}},
		},
		"invalid-items": {
			{0, []api.BatchItem{{App: "lambda1", Deadline: 9}, {App: "nope", Deadline: 9}, {App: "lambda2", Deadline: 0}, {App: "lambda2", Deadline: 8}}},
			{10, []api.BatchItem{{App: "ghost", Deadline: 12}, {App: "also-ghost", Deadline: 12}}},
		},
		"singleton-batches": {
			{0, []api.BatchItem{{App: "lambda1", Deadline: 9}}},
			{1, []api.BatchItem{{App: "lambda2", Deadline: 5}}},
		},
	}
	for name, script := range scripts {
		t.Run(name, func(t *testing.T) {
			seqM, seqLog := runScript(t, script, Options{}, false)
			batM, batLog := runScript(t, script, Options{}, true)
			for i := range seqLog {
				sameVerdicts(t, batLog[i], seqLog[i])
			}
			if got, want := stripWallClock(batM.Stats()), stripWallClock(seqM.Stats()); got != want {
				t.Errorf("stats diverged:\nbatch %+v\nseq   %+v", got, want)
			}
			if got, want := batM.CurrentSchedule(), seqM.CurrentSchedule(); !reflect.DeepEqual(got, want) {
				t.Errorf("final schedules diverged:\nbatch %+v\nseq   %+v", got, want)
			}
			if got, want := batM.ExecutedTimeline(), seqM.ExecutedTimeline(); !reflect.DeepEqual(got, want) {
				t.Errorf("executed timelines diverged:\nbatch %+v\nseq   %+v", got, want)
			}
			// Draining both must finish the same jobs with the same energy.
			sd, err := seqM.Drain()
			if err != nil {
				t.Fatal(err)
			}
			bd, err := batM.Drain()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sd, bd) {
				t.Errorf("drain completions diverged:\nbatch %+v\nseq   %+v", bd, sd)
			}
			if got, want := stripWallClock(batM.Stats()), stripWallClock(seqM.Stats()); got != want {
				t.Errorf("post-drain stats diverged:\nbatch %+v\nseq   %+v", got, want)
			}
		})
	}
}

// TestSubmitBatchEquivalenceOnTrace pins the equivalence on a seeded
// Poisson trace whose arrivals are grouped into same-time bursts.
func TestSubmitBatchEquivalenceOnTrace(t *testing.T) {
	base, err := workload.Trace(motiv.Library(), workload.TraceParams{Rate: 0.3, Horizon: 120, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// Round arrivals down to 10-second slots so several requests share
	// each batch time (deadlines keep their spread).
	var script []batchScript
	for _, r := range base {
		slot := math.Floor(r.At/10) * 10
		if n := len(script); n > 0 && script[n-1].t == slot {
			script[n-1].reqs = append(script[n-1].reqs, api.BatchItem{App: r.App, Deadline: r.Deadline})
			continue
		}
		script = append(script, batchScript{t: slot, reqs: []api.BatchItem{{App: r.App, Deadline: r.Deadline}}})
	}
	seqM, seqLog := runScript(t, script, Options{}, false)
	batM, batLog := runScript(t, script, Options{}, true)
	for i := range seqLog {
		sameVerdicts(t, batLog[i], seqLog[i])
	}
	if got, want := stripWallClock(batM.Stats()), stripWallClock(seqM.Stats()); got != want {
		t.Fatalf("stats diverged:\nbatch %+v\nseq   %+v", got, want)
	}
	if batM.Stats().Activations > seqM.Stats().Activations {
		t.Errorf("batching increased activations: %d > %d",
			batM.Stats().Activations, seqM.Stats().Activations)
	}
	if _, err := seqM.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := batM.Drain(); err != nil {
		t.Fatal(err)
	}
	if got, want := stripWallClock(batM.Stats()), stripWallClock(seqM.Stats()); got != want {
		t.Fatalf("post-drain stats diverged:\nbatch %+v\nseq   %+v", got, want)
	}
}

// TestSubmitBatchFastPathActivations pins the headline saving: a
// feasible k-request batch costs one activation; an infeasible one
// falls back to k trial solves after the failed joint solve.
func TestSubmitBatchFastPathActivations(t *testing.T) {
	m := newMgr(t, Options{})
	vs, _, err := m.SubmitBatch(0, []api.BatchItem{{App: "lambda1", Deadline: 30}, {App: "lambda2", Deadline: 30}, {App: "lambda1", Deadline: 40}})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vs {
		if !v.Accepted || v.Err != nil {
			t.Fatalf("verdict %d: %+v, want accepted", i, v)
		}
	}
	if got := m.Stats().Activations; got != 1 {
		t.Errorf("feasible batch cost %d activations, want 1", got)
	}
	if ids := []int{vs[0].JobID, vs[1].JobID, vs[2].JobID}; ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Errorf("job ids %v, want sequential 1,2,3", ids)
	}

	// Over-subscribe: the joint solve fails, then each of the 4 requests
	// gets its own trial solve (1 + 4 activations on a fresh manager).
	m2 := newMgr(t, Options{})
	vs2, _, err := m2.SubmitBatch(0, []api.BatchItem{{App: "lambda1", Deadline: 9}, {App: "lambda2", Deadline: 9}, {App: "lambda2", Deadline: 9}, {App: "lambda2", Deadline: 9}})
	if err != nil {
		t.Fatal(err)
	}
	accepted := 0
	for _, v := range vs2 {
		if v.Accepted {
			accepted++
		}
	}
	if accepted == 0 || accepted == len(vs2) {
		t.Fatalf("fallback burst: %d/%d accepted, want a proper split", accepted, len(vs2))
	}
	if got := m2.Stats().Activations; got != 1+len(vs2) {
		t.Errorf("fallback batch cost %d activations, want %d", got, 1+len(vs2))
	}
}

// TestSubmitBatchEmptyAndInvalid: an all-invalid batch decides every
// item without touching the clock or the counters, matching sequential
// Submit error semantics; an empty batch is a no-op.
func TestSubmitBatchEmptyAndInvalid(t *testing.T) {
	m := newMgr(t, Options{})
	if _, err := m.AdvanceTo(5); err != nil {
		t.Fatal(err)
	}
	vs, done, err := m.SubmitBatch(5, nil)
	if err != nil || len(vs) != 0 || len(done) != 0 {
		t.Fatalf("empty batch: %v %v %v", vs, done, err)
	}
	vs, _, err = m.SubmitBatch(7, []api.BatchItem{{App: "nope", Deadline: 9}, {App: "lambda1", Deadline: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(vs[0].Err, ErrUnknownApp) || !errors.Is(vs[1].Err, ErrBadDeadline) {
		t.Fatalf("verdicts %+v, want unknown-app and bad-deadline", vs)
	}
	if now := m.Now(); now != 5 {
		t.Errorf("all-invalid batch moved the clock to %v", now)
	}
	if st := m.Stats(); st.Submitted != 0 || st.Activations != 0 {
		t.Errorf("all-invalid batch touched counters: %+v", st)
	}
}

// TestAdvanceToClampsClock: a target inside the epsilon band below the
// current time is accepted (per-device streams may carry such jitter)
// but must never move the clock backwards.
func TestAdvanceToClampsClock(t *testing.T) {
	m := newMgr(t, Options{})
	if _, err := m.AdvanceTo(10); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AdvanceTo(10 - schedule.Eps/2); err != nil {
		t.Fatalf("epsilon-band advance rejected: %v", err)
	}
	if now := m.Now(); now != 10 {
		t.Errorf("clock regressed to %v, want clamp at 10", now)
	}
	if _, err := m.AdvanceTo(10 - 2*schedule.Eps); !errors.Is(err, ErrTimeBackwards) {
		t.Errorf("genuine time travel accepted: %v", err)
	}
}

// TestExecutedTimelineTruncatedAtCompletion: a job finishing inside an
// executed slice must not be recorded as running past its completion
// time — the audit timeline is cut at each distinct completion.
func TestExecutedTimelineTruncatedAtCompletion(t *testing.T) {
	m := newMgr(t, Options{})
	id1, ok, _, err := m.Submit(0, "lambda1", 9)
	if err != nil || !ok {
		t.Fatal("λ1 rejected")
	}
	id2, ok, _, err := m.Submit(1, "lambda2", 5)
	if err != nil || !ok {
		t.Fatal("λ2 rejected")
	}
	// Jump far past both completions in one advance: the old recorder
	// would stretch both jobs to the last segment end.
	done, err := m.AdvanceTo(50)
	if err != nil {
		t.Fatal(err)
	}
	finish := map[int]float64{}
	for _, c := range done {
		finish[c.JobID] = c.At
	}
	if len(finish) != 2 {
		t.Fatalf("completions %+v, want both jobs", done)
	}
	last := map[int]float64{}
	for _, seg := range m.ExecutedTimeline() {
		if seg.End <= seg.Start {
			t.Errorf("degenerate executed segment %+v", seg)
		}
		for _, p := range seg.Placements {
			if seg.End > last[p.JobID] {
				last[p.JobID] = seg.End
			}
		}
	}
	for _, id := range []int{id1, id2} {
		if math.Abs(last[id]-finish[id]) > 1e-6 {
			t.Errorf("job %d recorded until %v, finished at %v", id, last[id], finish[id])
		}
	}
}

// TestRescheduleOnFinishFiresOnAdvance pins the bugfix: completions
// observed through a plain AdvanceTo (the service path) must trigger
// the promised re-plan, visible as extra scheduler activations.
func TestRescheduleOnFinishFiresOnAdvance(t *testing.T) {
	run := func(opt Options) Stats {
		m := newMgr(t, opt)
		if _, ok, _, err := m.Submit(0, "lambda1", 9); err != nil || !ok {
			t.Fatal("λ1 rejected")
		}
		if _, ok, _, err := m.Submit(0, "lambda2", 60); err != nil || !ok {
			t.Fatal("λ2 rejected")
		}
		// Advance exactly to the first completion: the advance retires
		// one job while the other is still active — the re-plan case.
		next, ok := m.NextCompletion()
		if !ok {
			t.Fatal("no planned completion")
		}
		done, err := m.AdvanceTo(next)
		if err != nil {
			t.Fatal(err)
		}
		if len(done) != 1 || len(m.ActiveJobs()) != 1 {
			t.Fatalf("fixture: %d completions, %d active, want 1 and 1", len(done), len(m.ActiveJobs()))
		}
		if _, err := m.Drain(); err != nil {
			t.Fatal(err)
		}
		return m.Stats()
	}
	plain := run(Options{})
	replan := run(Options{RescheduleOnFinish: true})
	if replan.Activations <= plain.Activations {
		t.Errorf("RescheduleOnFinish dead on the advance path: %d ≤ %d activations",
			replan.Activations, plain.Activations)
	}
	if replan.Completed != plain.Completed || replan.DeadlineMisses != 0 {
		t.Errorf("re-plan changed outcomes: %+v vs %+v", replan, plain)
	}
}

// batchOf zips apps and deadlines into a batch request list.
func batchOf(apps []string, deadlines []float64) []api.BatchItem {
	reqs := make([]api.BatchItem, len(apps))
	for i, app := range apps {
		reqs[i] = api.BatchItem{App: app, Deadline: deadlines[i]}
	}
	return reqs
}
