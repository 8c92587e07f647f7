package adaptrm

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"

	"adaptrm/internal/motiv"
)

func TestFacadeGreedyScheduler(t *testing.T) {
	s := NewMMKPGreedy()
	if s.Name() != "MMKP-GR" {
		t.Errorf("name = %q", s.Name())
	}
	jobs := JobSet(motiv.ScenarioS1AtT1())
	k, err := ScheduleJobs(s, jobs, Motivational2L2B(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if k.IsEmpty() {
		t.Error("empty schedule")
	}
}

func TestFacadeProactive(t *testing.T) {
	lib := motiv.Library()
	pred := NewInterArrivalPredictor()
	pro := NewProactive(NewMMKPMDF(), pred, lib, 20, "lambda2")
	if pro.Name() != "MMKP-MDF+predict" {
		t.Errorf("name = %q", pro.Name())
	}
	// With no observations the wrapper passes through.
	jobs := JobSet(motiv.ScenarioS1AtT1())
	if _, err := ScheduleJobs(pro, jobs, Motivational2L2B(), 1); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeDVFS(t *testing.T) {
	plat := OdroidXU4DVFS()
	if err := plat.Validate(); err != nil {
		t.Fatal(err)
	}
	lib, err := ExploreDVFS(plat, 10)
	if err != nil {
		t.Fatal(err)
	}
	if lib.Len() != 9 {
		t.Fatalf("library has %d tables", lib.Len())
	}
	// A DVFS library schedules through the normal runtime path.
	mgr, err := NewManager(plat, lib, NewMMKPMDF(), ManagerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	name := lib.Names()[0]
	if _, ok, _, err := mgr.Submit(0, name, 1e6); err != nil || !ok {
		t.Fatalf("submit: ok=%v err=%v", ok, err)
	}
	if _, err := mgr.Drain(); err != nil {
		t.Fatal(err)
	}
	if mgr.Stats().DeadlineMisses != 0 {
		t.Error("misses")
	}
}

func TestFacadeFleet(t *testing.T) {
	lib := motiv.Library()
	trace, err := GenerateFleetTrace(lib, FleetTraceParams{
		Devices: 3, Rate: 0.1, Horizon: 60, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) == 0 {
		t.Fatal("empty fleet trace")
	}
	devs := make([]FleetDevice, 3)
	for i := range devs {
		devs[i] = FleetDevice{
			Platform:  Motivational2L2B(),
			Library:   lib,
			Scheduler: NewMMKPMDF(),
		}
	}
	f, err := NewFleet(devs, FleetOptions{Shards: 2, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Replay(trace); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s := f.Stats()
	if s.Submitted != len(trace) {
		t.Errorf("submitted %d of %d", s.Submitted, len(trace))
	}
	if s.Completed != s.Accepted {
		t.Errorf("drain incomplete: %+v", s)
	}
}

// TestFacadeService exercises the re-exported protocol surface: the
// in-process fleet service and the HTTP client both satisfy Service,
// agree on decisions, and surface the taxonomy sentinels.
func TestFacadeService(t *testing.T) {
	lib := motiv.Library()
	newFleet := func() *Fleet {
		devs := []FleetDevice{{Platform: Motivational2L2B(), Library: lib, Scheduler: NewMMKPMDF()}}
		f, err := NewFleet(devs, FleetOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	ctx := context.Background()

	inproc := newFleet()
	t.Cleanup(func() { _ = inproc.Close() })
	backend := newFleet()
	t.Cleanup(func() { _ = backend.Close() })
	srv, err := NewHTTPServer(backend.Service(), HTTPServerOptions{
		Tenants: []Tenant{{Name: "t", Token: "tok", MaxRequests: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	// Misconfigured tenant lists fail at construction.
	if _, err := NewHTTPServer(backend.Service(), HTTPServerOptions{
		Tenants: []Tenant{{Name: "a", Token: "x"}, {Name: "b", Token: "x"}},
	}); err == nil {
		t.Error("duplicate tenant tokens accepted")
	}

	for name, svc := range map[string]Service{
		"in-process": inproc.Service(),
		"http":       NewHTTPClient(ts.URL, "tok", ts.Client()),
	} {
		res, err := svc.Submit(ctx, SubmitRequest{Device: 0, At: 0, App: "lambda1", Deadline: 9})
		if err != nil || !res.Accepted || res.JobID != 1 {
			t.Fatalf("%s: submit = %+v, %v", name, res, err)
		}
		if _, err := svc.Submit(ctx, SubmitRequest{Device: 0, At: 0, App: "lambda1", Deadline: 9}); !errors.Is(err, ErrRejected) {
			t.Errorf("%s: second λ1: %v, want ErrRejected", name, err)
		}
		if _, err := svc.Cancel(ctx, CancelRequest{Device: 0, JobID: 999}); !errors.Is(err, ErrUnknownJob) {
			t.Errorf("%s: cancel: %v, want ErrUnknownJob", name, err)
		}
		st, err := svc.Stats(ctx, StatsRequest{})
		if err != nil || st.Accepted != 1 || st.Rejected != 1 {
			t.Errorf("%s: stats = %+v, %v", name, st, err)
		}
	}
	// The budgeted HTTP tenant has spent 3 of 4 mutating calls; two more
	// exhaust the quota with a typed error.
	client := NewHTTPClient(ts.URL, "tok", ts.Client())
	if _, err := client.Advance(ctx, AdvanceRequest{Device: 0, To: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Advance(ctx, AdvanceRequest{Device: 0, To: 2}); !errors.Is(err, ErrQuotaExceeded) {
		t.Errorf("quota: %v, want ErrQuotaExceeded", err)
	}
}

// TestFacadeSubmitBatch exercises the batched-admission surface: the
// Service's SubmitBatch over both transports, the manager-level
// batch call, and the fleet's coalescing window option.
func TestFacadeSubmitBatch(t *testing.T) {
	lib := motiv.Library()
	ctx := context.Background()
	devs := []FleetDevice{{Platform: Motivational2L2B(), Library: lib, Scheduler: NewMMKPMDF()}}
	f, err := NewFleet(devs, FleetOptions{BatchWindow: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	srv, err := NewHTTPServer(f.Service(), HTTPServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	at := 0.0
	for name, svc := range map[string]Service{
		"in-process": f.Service(),
		"http":       NewHTTPClient(ts.URL, "", ts.Client()),
	} {
		res, err := svc.SubmitBatch(ctx, BatchSubmitRequest{Device: 0, At: at, Items: []BatchItem{
			{App: "lambda1", Deadline: at + 30},
			{App: "nope", Deadline: at + 30},
			{App: "lambda2", Deadline: at + 35},
		}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Verdicts[0].Accepted || !res.Verdicts[2].Accepted {
			t.Errorf("%s: valid items not admitted: %+v", name, res.Verdicts)
		}
		if !errors.Is(res.Verdicts[1].Error, ErrUnknownApp) {
			t.Errorf("%s: unknown app verdict: %+v", name, res.Verdicts[1])
		}
		if _, err := svc.Advance(ctx, AdvanceRequest{Device: 0, To: at + 50}); err != nil {
			t.Fatalf("%s: advance: %v", name, err)
		}
		at += 100
	}

	// The manager-level call shares the semantics.
	mgr, err := NewManager(Motivational2L2B(), lib, NewMMKPMDF(), ManagerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	vs, _, err := mgr.SubmitBatch(0, []BatchItem{{App: "lambda1", Deadline: 30}, {App: "lambda2", Deadline: 30}})
	if err != nil {
		t.Fatal(err)
	}
	if !vs[0].Accepted || !vs[1].Accepted || mgr.Stats().Activations != 1 {
		t.Errorf("manager batch: %+v, %d activations", vs, mgr.Stats().Activations)
	}
}

// TestFacadeWatch exercises the streaming surface through the facade:
// the Service's Watch over both transports, the event taxonomy constants
// (a controlled fleet's tier switch included), and resume-from-sequence.
func TestFacadeWatch(t *testing.T) {
	lib := motiv.Library()
	devs := []FleetDevice{{Platform: Motivational2L2B(), Library: lib, Scheduler: NewMMKPMDF()}}
	// Any observed admission latency clears the 1ns bar, so one tick
	// after traffic escalates the fleet one tier.
	ctl := NewController(ControllerConfig{HighLatency: 1, EnterTicks: 1})
	f, err := NewFleet(devs, FleetOptions{Control: ctl})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewHTTPServer(f.Service(), HTTPServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	ctx := context.Background()

	logs := map[string]*[]Event{}
	var waits []func()
	for name, svc := range map[string]Service{
		"in-process": f.Service(),
		"http":       NewHTTPClient(ts.URL, "", ts.Client()),
	} {
		ch, err := svc.Watch(ctx, WatchRequest{})
		if err != nil {
			t.Fatalf("%s: watch: %v", name, err)
		}
		var evs []Event
		logs[name] = &evs
		done := make(chan struct{})
		go func() {
			defer close(done)
			for ev := range ch {
				evs = append(evs, ev)
			}
		}()
		waits = append(waits, func() { <-done })
	}

	svc := f.Service()
	if _, err := svc.Submit(ctx, SubmitRequest{Device: 0, At: 0, App: "lambda1", Deadline: 9}); err != nil {
		t.Fatal(err)
	}
	ctl.Tick(1)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, wait := range waits {
		wait()
	}
	for name, evs := range logs {
		var types []EventType
		for _, ev := range *evs {
			types = append(types, ev.Type)
		}
		want := []EventType{EventJobAdmitted, EventScheduleChanged, EventModeChanged, EventJobStarted, EventJobCompleted, EventClockAdvanced}
		if len(types) != len(want) {
			t.Fatalf("%s: stream = %v, want %v", name, types, want)
		}
		for i := range want {
			if types[i] != want[i] {
				t.Fatalf("%s: stream = %v, want %v", name, types, want)
			}
		}
	}
	for i := range *logs["in-process"] {
		if (*logs["in-process"])[i] != (*logs["http"])[i] {
			t.Fatalf("transports diverged at event %d: %+v vs %+v",
				i, (*logs["in-process"])[i], (*logs["http"])[i])
		}
	}
}

func TestFacadeCachingScheduler(t *testing.T) {
	cache := NewScheduleCache(ScheduleCacheParams{Capacity: 16})
	s := NewCachingScheduler(NewMMKPMDF(), cache)
	if s.Name() != "MMKP-MDF+cache" {
		t.Errorf("name = %q", s.Name())
	}
	jobs := JobSet(motiv.ScenarioS1AtT1())
	if _, err := ScheduleJobs(s, jobs, Motivational2L2B(), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ScheduleJobs(s, jobs, Motivational2L2B(), 1); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 hit / 1 miss", st)
	}
}

// TestFacadeRouter exercises the re-exported multi-node surface: a
// consistent-hash ring, two in-process backend fleets, and the router
// serving the Service protocol across them with merged statistics and
// the ErrUnavailable sentinel on a dead peer.
func TestFacadeRouter(t *testing.T) {
	const devices = 4
	lib := motiv.Library()
	newNode := func() *Fleet {
		devs := make([]FleetDevice, devices)
		for i := range devs {
			devs[i] = FleetDevice{Platform: Motivational2L2B(), Library: lib, Scheduler: NewMMKPMDF()}
		}
		f, err := NewFleet(devs, FleetOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = f.Close() })
		return f
	}
	ring, err := NewPlacementRing(PlacementRingConfig{Owners: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	nodes := []*Fleet{newNode(), newNode()}
	rt, err := NewRouter([]RouterBackend{
		{Name: "node0", Service: nodes[0].Service()},
		{Name: "node1", Service: nodes[1].Service()},
	}, ring)
	if err != nil {
		t.Fatal(err)
	}
	var svc Service = rt // the router is a plain Service

	ctx := context.Background()
	for d := 0; d < devices; d++ {
		if r, err := svc.Submit(ctx, SubmitRequest{Device: d, At: 0, App: "lambda1", Deadline: 9}); err != nil || !r.Accepted {
			t.Fatalf("device %d: %+v, %v", d, r, err)
		}
	}
	st, err := svc.Stats(ctx, StatsRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Submitted != devices || st.Devices != devices {
		t.Errorf("merged stats = %+v", st)
	}
	// Placement also repartitions a fleet's own shards.
	f, err := NewFleet([]FleetDevice{
		{Platform: Motivational2L2B(), Library: lib, Scheduler: NewMMKPMDF()},
		{Platform: Motivational2L2B(), Library: lib, Scheduler: NewMMKPMDF()},
	}, FleetOptions{Placement: ModuloPlacement(2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// A router over an unreachable backend surfaces the taxonomy
	// sentinel.
	ts := httptest.NewServer(nil)
	deadURL := ts.URL
	ts.Close()
	rt2, err := NewRouter([]RouterBackend{{Name: "gone", Service: NewHTTPClient(deadURL, "", nil)}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt2.Submit(ctx, SubmitRequest{Device: 0, At: 0, App: "lambda1", Deadline: 9}); !errors.Is(err, ErrUnavailable) {
		t.Errorf("dead peer: %v, want ErrUnavailable", err)
	}
}
