package fleet

import (
	"errors"
	"sync"
	"testing"
	"time"

	"adaptrm/internal/api"
	"adaptrm/internal/core"
	"adaptrm/internal/motiv"
	"adaptrm/internal/workload"
)

// stripOpportunistic removes, on top of the wall-clock fields, the
// counters that legitimately vary with batch formation: activation
// counts and the coalescing tallies.
func stripOpportunistic(s api.StatsResult) api.StatsResult {
	s = deterministic(s)
	s.Activations = 0
	s.CoalescedBatches = 0
	s.CoalescedRequests = 0
	return s
}

// TestServiceSubmitBatchDecisions drives an explicit batch through the
// typed protocol: per-item verdicts in order, sequential job ids, one
// activation for a jointly feasible batch, taxonomy errors for invalid
// items, and a whole-batch error for an unknown device.
func TestServiceSubmitBatchDecisions(t *testing.T) {
	f := newTestFleet(t, 1, Options{})
	svc := f.Service()
	res, err := svc.SubmitBatch(ctxBG, api.BatchSubmitRequest{Device: 0, At: 0, Items: []api.BatchItem{
		{App: "lambda1", Deadline: 30},
		{App: "lambda2", Deadline: 30},
		{App: "lambda1", Deadline: 40},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Verdicts) != 3 {
		t.Fatalf("verdicts = %+v", res.Verdicts)
	}
	for i, v := range res.Verdicts {
		if !v.Accepted || v.JobID != i+1 || v.Error != nil {
			t.Fatalf("verdict %d = %+v, want accepted job %d", i, v, i+1)
		}
	}
	ds, err := f.DeviceStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Activations != 1 || ds.Accepted != 3 {
		t.Fatalf("device stats after feasible batch: %+v, want 1 activation, 3 accepted", ds)
	}

	// Mixed batch: an unknown app and an impossible deadline become
	// per-item taxonomy errors; the valid item is still decided.
	res, err = svc.SubmitBatch(ctxBG, api.BatchSubmitRequest{Device: 0, At: 1, Items: []api.BatchItem{
		{App: "nope", Deadline: 30},
		{App: "lambda2", Deadline: 0.5},
		{App: "lambda2", Deadline: 41},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.Verdicts[0].Error, api.ErrUnknownApp) {
		t.Errorf("unknown app verdict: %+v", res.Verdicts[0])
	}
	if !errors.Is(res.Verdicts[1].Error, api.ErrBadRequest) {
		t.Errorf("bad deadline verdict: %+v", res.Verdicts[1])
	}
	if !res.Verdicts[2].Accepted {
		t.Errorf("valid item not admitted: %+v", res.Verdicts[2])
	}

	// Whole-batch failures stay call-level.
	if _, err := svc.SubmitBatch(ctxBG, api.BatchSubmitRequest{Device: 9, At: 2, Items: []api.BatchItem{{App: "lambda1", Deadline: 9}}}); !errors.Is(err, api.ErrUnknownDevice) {
		t.Errorf("unknown device: %v", err)
	}
	// An empty batch decides nothing, but its address is still checked.
	for _, dev := range []int{-1, 9} {
		if _, err := svc.SubmitBatch(ctxBG, api.BatchSubmitRequest{Device: dev, At: 2}); !errors.Is(err, api.ErrUnknownDevice) {
			t.Errorf("empty batch for device %d: %v, want ErrUnknownDevice", dev, err)
		}
	}
	// The empty batch is a no-op: empty result, no error, and no clock
	// movement (nothing was enqueued for the device at all).
	before, err := f.DeviceNow(0)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := svc.SubmitBatch(ctxBG, api.BatchSubmitRequest{Device: 0, At: 99}); err != nil || len(res.Verdicts) != 0 || len(res.Completions) != 0 {
		t.Errorf("empty batch: res %+v err %v, want empty result and nil error", res, err)
	}
	if now, err := f.DeviceNow(0); err != nil || now != before {
		t.Errorf("empty batch moved the device clock %v → %v (err %v)", before, now, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceSubmitBatchMatchesSequential replays the same mixed trace
// through SubmitBatch (grouped by coincident arrivals) and through
// one-by-one Submit calls on separate fleets: verdicts, job ids and all
// deterministic statistics except activation counts must coincide.
func TestServiceSubmitBatchMatchesSequential(t *testing.T) {
	groups := []struct {
		at    float64
		items []api.BatchItem
	}{
		{0, []api.BatchItem{{App: "lambda1", Deadline: 9}, {App: "lambda2", Deadline: 9}}},
		{12, []api.BatchItem{{App: "lambda1", Deadline: 21}, {App: "lambda2", Deadline: 21}, {App: "lambda2", Deadline: 21}}},
		{25, []api.BatchItem{{App: "lambda2", Deadline: 26.5}}},
	}
	batched := newTestFleet(t, 1, Options{})
	seq := newTestFleet(t, 1, Options{})
	for _, g := range groups {
		res, err := batched.Service().SubmitBatch(ctxBG, api.BatchSubmitRequest{Device: 0, At: g.at, Items: g.items})
		if err != nil {
			t.Fatal(err)
		}
		for i, it := range g.items {
			sr, serr := seq.Service().Submit(ctxBG, api.SubmitRequest{Device: 0, At: g.at, App: it.App, Deadline: it.Deadline})
			if serr != nil && !errors.Is(serr, api.ErrInfeasible) {
				t.Fatal(serr)
			}
			v := res.Verdicts[i]
			if v.Accepted != sr.Accepted || v.JobID != sr.JobID {
				t.Errorf("t=%v item %d: batch %+v vs sequential %+v", g.at, i, v, sr)
			}
			if (serr != nil) != (v.Error != nil) {
				t.Errorf("t=%v item %d: batch err %v vs sequential err %v", g.at, i, v.Error, serr)
			}
		}
	}
	if err := batched.Close(); err != nil {
		t.Fatal(err)
	}
	if err := seq.Close(); err != nil {
		t.Fatal(err)
	}
	if a, b := stripOpportunistic(batched.Stats()), stripOpportunistic(seq.Stats()); a != b {
		t.Errorf("stats diverged:\nbatch %+v\nseq   %+v", a, b)
	}
	if a, b := batched.Stats().Activations, seq.Stats().Activations; a > b {
		t.Errorf("batching increased activations: %d > %d", a, b)
	}
}

// TestBatchWindowCoalescesQueuedSubmits pins the worker-side fast path
// deterministically: with the single shard worker wedged in a solve,
// three same-device same-time submits queue up behind it; on release
// they must be decided in one activation.
func TestBatchWindowCoalescesQueuedSubmits(t *testing.T) {
	release := make(chan struct{})
	devs := []DeviceConfig{{
		Platform:  motiv.Platform(),
		Library:   motiv.Library(),
		Scheduler: blockingScheduler(release),
	}}
	f, err := New(devs, Options{Shards: 1, MailboxSize: 8, BatchWindow: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// The first submit wedges the worker inside its solve; the next
	// three park in the mailbox before the worker can see them.
	if err := f.Replay([]workload.FleetRequest{
		{Device: 0, At: 0, App: "lambda1", Deadline: 20},
		{Device: 0, At: 1, App: "lambda1", Deadline: 30},
		{Device: 0, At: 1, App: "lambda2", Deadline: 35},
		{Device: 0, At: 1, App: "lambda1", Deadline: 40},
	}); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s := f.Stats()
	if s.Accepted != 4 || s.Completed != 4 {
		t.Fatalf("admissions: %+v", s)
	}
	// One activation for the wedged submit, one for the joint batch.
	if s.Activations != 2 {
		t.Errorf("activations = %d, want 2 (solo + coalesced batch)", s.Activations)
	}
	if s.CoalescedBatches != 1 || s.CoalescedRequests != 3 {
		t.Errorf("coalescing counters: %+v, want 1 batch of 3", s)
	}
}

// TestCloseDuringCoalesceWindowFlushesPending is the shutdown barrier
// of batched admission: Close racing an in-flight coalescing window
// (worker wedged in a solve, more submits parked in the mailbox) must
// flush the pending FIFO through the normal decide path before the
// shard exits — every request decided, none dropped. The assertions
// hold in both interleavings (Close beginning before or after the
// release); the sleep biases the schedule toward the racy one.
func TestCloseDuringCoalesceWindowFlushesPending(t *testing.T) {
	release := make(chan struct{})
	devs := []DeviceConfig{{
		Platform:  motiv.Platform(),
		Library:   motiv.Library(),
		Scheduler: blockingScheduler(release),
	}}
	f, err := New(devs, Options{Shards: 1, MailboxSize: 8, BatchWindow: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// The first submit wedges the worker inside its solve; three
	// coalescible submits park behind it.
	if err := f.Replay([]workload.FleetRequest{
		{Device: 0, At: 0, App: "lambda1", Deadline: 20},
		{Device: 0, At: 1, App: "lambda1", Deadline: 30},
		{Device: 0, At: 1, App: "lambda2", Deadline: 35},
		{Device: 0, At: 1, App: "lambda1", Deadline: 40},
	}); err != nil {
		t.Fatal(err)
	}
	// Close with the window still in flight: it must block until the
	// parked submits are decided, not abandon them.
	closed := make(chan error, 1)
	go func() { closed <- f.Close() }()
	time.Sleep(20 * time.Millisecond)
	close(release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	s := f.Stats()
	if s.Submitted != 4 || s.Accepted != 4 || s.Completed != 4 {
		t.Fatalf("flush lost requests: %+v", s)
	}
	// One activation for the wedged submit, one for the coalesced rest.
	if s.Activations != 2 {
		t.Errorf("activations = %d, want 2 (solo + coalesced batch)", s.Activations)
	}
	if s.CoalescedBatches != 1 || s.CoalescedRequests != 3 {
		t.Errorf("coalescing counters: %+v, want 1 batch of 3", s)
	}
}

// TestBatchWindowPreservesOrderAcrossDevices: while a batch forms for
// one device, ops for other devices drained ahead of time must neither
// be lost nor reordered, and a same-device non-submit op is a barrier.
func TestBatchWindowPreservesOrderAcrossDevices(t *testing.T) {
	release := make(chan struct{})
	devs := []DeviceConfig{
		{Platform: motiv.Platform(), Library: motiv.Library(), Scheduler: blockingScheduler(release)},
		{Platform: motiv.Platform(), Library: motiv.Library(), Scheduler: core.New()},
	}
	f, err := New(devs, Options{Shards: 1, MailboxSize: 16, BatchWindow: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Wedge device 0, then interleave: two coalescible device-0 submits
	// around a device-1 submit, then a device-0 submit far outside the
	// window — a batch barrier that must keep its place in line.
	if err := f.Replay([]workload.FleetRequest{
		{Device: 0, At: 0, App: "lambda1", Deadline: 20},
		{Device: 0, At: 1, App: "lambda1", Deadline: 30},
		{Device: 1, At: 1, App: "lambda2", Deadline: 9},
		{Device: 0, At: 1.2, App: "lambda2", Deadline: 35},
		{Device: 0, At: 10, App: "lambda2", Deadline: 50},
	}); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s := f.Stats()
	if s.Accepted != 5 || s.Completed != 5 || s.DeadlineMisses != 0 {
		t.Fatalf("stats: %+v", s)
	}
	if s.CoalescedBatches != 1 || s.CoalescedRequests != 2 {
		t.Errorf("coalescing counters: %+v, want one batch of 2", s)
	}
	d0, err := f.DeviceStats(0)
	if err != nil {
		t.Fatal(err)
	}
	// Wedged solo + coalesced pair + out-of-window solo.
	if d0.Activations != 3 {
		t.Errorf("device 0 activations = %d, want 3", d0.Activations)
	}
	d1, err := f.DeviceStats(1)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Accepted != 1 {
		t.Errorf("device 1 lost its submit: %+v", d1)
	}
}

// TestBatchedMatchesUnbatchedOnBurstyTrace replays the same bursty
// coincident-arrival trace through a coalescing fleet and a plain one:
// admission, energy and completion statistics must be byte-identical
// (batched admission is behaviour-preserving for coincident arrivals),
// with the batched run spending no more scheduler activations. Replay's
// fire-and-forget enqueue lets the mailboxes actually fill, giving the
// workers something to coalesce.
func TestBatchedMatchesUnbatchedOnBurstyTrace(t *testing.T) {
	const devices = 4
	trace, err := workload.FleetTrace(motiv.Library(), workload.FleetTraceParams{
		Devices: devices, Rate: 0.05, Horizon: 300, BurstSize: 3, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(opt Options) api.StatsResult {
		f := newTestFleet(t, devices, opt)
		if err := f.Replay(trace); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return f.Stats()
	}
	plain := run(Options{Shards: 2})
	batched := run(Options{Shards: 2, BatchWindow: 0.01})
	if plain.Submitted == 0 || plain.Submitted != len(trace) {
		t.Fatalf("trivial run: %+v for %d requests", plain, len(trace))
	}
	if a, b := stripOpportunistic(batched), stripOpportunistic(plain); a != b {
		t.Errorf("batched run changed behaviour:\nbatched %+v\nplain   %+v", a, b)
	}
	if batched.Activations > plain.Activations {
		t.Errorf("batching increased activations: %d > %d", batched.Activations, plain.Activations)
	}
}

// TestFleetMixedTrafficRace is the -race workhorse for batching: many
// goroutines (each owning disjoint devices, preserving per-device
// order) interleave Submit, SubmitBatch, Advance and Cancel against a
// small shard pool with coalescing enabled, while Stats snapshots run
// concurrently. Everything must land, drain and stay consistent.
func TestFleetMixedTrafficRace(t *testing.T) {
	const devices, goroutines = 6, 3
	f := newTestFleet(t, devices, Options{Shards: 2, MailboxSize: 4, BatchWindow: 0.05})
	svc := f.Service()
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for d := g; d < devices; d += goroutines {
				at := 0.0
				for round := 0; round < 8; round++ {
					res, err := svc.SubmitBatch(ctxBG, api.BatchSubmitRequest{Device: d, At: at, Items: []api.BatchItem{
						{App: "lambda1", Deadline: at + 30},
						{App: "lambda2", Deadline: at + 35},
					}})
					if err != nil {
						t.Errorf("batch on device %d: %v", d, err)
						return
					}
					if _, err := svc.Submit(ctxBG, api.SubmitRequest{Device: d, At: at + 1, App: "lambda2", Deadline: at + 40}); err != nil && !errors.Is(err, api.ErrInfeasible) {
						t.Errorf("submit on device %d: %v", d, err)
						return
					}
					if v := res.Verdicts[0]; v.Accepted {
						if _, err := svc.Cancel(ctxBG, api.CancelRequest{Device: d, JobID: v.JobID}); err != nil {
							t.Errorf("cancel on device %d: %v", d, err)
							return
						}
					}
					if _, err := svc.Advance(ctxBG, api.AdvanceRequest{Device: d, To: at + 50}); err != nil {
						t.Errorf("advance on device %d: %v", d, err)
						return
					}
					at += 100
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = f.Stats()
		}
	}()
	wg.Wait()
	<-done
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s := f.Stats()
	if s.Submitted == 0 || s.Completed == 0 {
		t.Fatalf("trivial run: %+v", s)
	}
	if s.DeadlineMisses != 0 {
		t.Errorf("deadline misses under mixed traffic: %+v", s)
	}
}
