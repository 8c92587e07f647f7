package rm

import (
	"math"
	"reflect"
	"testing"

	"adaptrm/internal/api"
	"adaptrm/internal/core"
	"adaptrm/internal/exmem"
	"adaptrm/internal/opset"
	"adaptrm/internal/platform"
	"adaptrm/internal/schedule"
)

// swapFixture builds a manager on the MDF-gap workload (see the exmem
// suite's mdfGapCase): admitting blocker then switcher leaves MMKP-MDF
// on a 14 J plan while the exact cut-at-completion optimum is 13.4 J —
// the shape anytime refinement exists for.
func swapFixture(t *testing.T) (*Manager, platform.Platform) {
	t.Helper()
	plat := platform.Motivational2L2B()
	blocker := &opset.Table{App: "blocker", Points: []opset.Point{
		{Alloc: platform.Alloc{1, 2}, Time: 4, Energy: 5},
	}}
	blocker.SortByEnergy()
	switcher := &opset.Table{App: "switcher", Points: []opset.Point{
		{Alloc: platform.Alloc{1, 0}, Time: 20, Energy: 2},
		{Alloc: platform.Alloc{1, 0}, Time: 8, Energy: 9},
		{Alloc: platform.Alloc{2, 2}, Time: 5, Energy: 10},
	}}
	switcher.SortByEnergy()
	lib := opset.NewLibrary()
	if err := lib.Add(blocker); err != nil {
		t.Fatal(err)
	}
	if err := lib.Add(switcher); err != nil {
		t.Fatal(err)
	}
	m, err := New(plat, lib, core.New(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m, plat
}

// admitGap admits the two gap-case jobs and returns a refined exact
// schedule strictly cheaper than the MDF incumbent.
func admitGap(t *testing.T, m *Manager, plat platform.Platform) *schedule.Schedule {
	t.Helper()
	for _, req := range []struct {
		app      string
		deadline float64
	}{{"blocker", 4}, {"switcher", 8.5}} {
		if _, accepted, _, err := m.Submit(0, req.app, req.deadline); err != nil || !accepted {
			t.Fatalf("submit %s: accepted=%v err=%v", req.app, accepted, err)
		}
	}
	jobs, now, incumbent, ok := m.RefineSnapshot()
	if !ok {
		t.Fatal("RefineSnapshot not ok with two active jobs")
	}
	k, err := exmem.New().ScheduleBudgeted(jobs, plat, now, incumbent)
	if err != nil {
		t.Fatalf("refinement found nothing: %v (incumbent %v)", err, incumbent)
	}
	return k
}

func TestSwapScheduleAcceptsImprovement(t *testing.T) {
	m, plat := swapFixture(t)
	var swaps []api.Event
	m.SetEventSink(func(ev api.Event) {
		if ev.Type == api.EventScheduleSwapped {
			swaps = append(swaps, ev)
		}
	})
	k := admitGap(t, m, plat)
	if !m.SwapSchedule(k) {
		t.Fatal("strictly cheaper valid schedule rejected")
	}
	if got := m.Stats().Swapped; got != 1 {
		t.Errorf("Swapped = %d, want 1", got)
	}
	if len(swaps) != 1 || swaps[0].Payload == "" || swaps[0].At != 0 {
		t.Fatalf("swap events = %+v, want one at t=0 with payload", swaps)
	}
	// The same offer again is no longer strictly cheaper.
	if m.SwapSchedule(k) {
		t.Error("re-offered incumbent accepted")
	}
	if _, err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if math.Abs(s.Energy-13.4) > 1e-6 {
		t.Errorf("drained energy = %v, want 13.4 (the exact optimum)", s.Energy)
	}
	if s.Completed != 2 || s.DeadlineMisses != 0 {
		t.Errorf("completions after swap: %+v", s)
	}
}

func TestSwapScheduleRejections(t *testing.T) {
	m, plat := swapFixture(t)
	if m.SwapSchedule(nil) {
		t.Error("nil schedule accepted")
	}
	if m.SwapSchedule(&schedule.Schedule{}) {
		t.Error("swap on an idle manager accepted")
	}
	k := admitGap(t, m, plat)
	// Not strictly cheaper: the current schedule offered back.
	if m.SwapSchedule(m.CurrentSchedule()) {
		t.Error("equal-energy schedule accepted")
	}
	// Stale: the job set changed since the refinement was captured.
	if err := m.Cancel(2); err != nil {
		t.Fatal(err)
	}
	if m.SwapSchedule(k) {
		t.Error("stale schedule (references a cancelled job) accepted")
	}
	if got := m.Stats().Swapped; got != 0 {
		t.Errorf("Swapped = %d, want 0", got)
	}
}

// TestReplaySwapReproduces: replaying the logged swap event on a
// manager at the same pre-swap state reproduces the schedule, the stats
// and the re-emitted event byte-identically — the property fleet
// recovery leans on.
func TestReplaySwapReproduces(t *testing.T) {
	m1, plat := swapFixture(t)
	var ev1 []api.Event
	m1.SetEventSink(func(ev api.Event) { ev1 = append(ev1, ev) })
	k := admitGap(t, m1, plat)
	if !m1.SwapSchedule(k) {
		t.Fatal("swap rejected")
	}

	m2, _ := swapFixture(t)
	var ev2 []api.Event
	m2.SetEventSink(func(ev api.Event) { ev2 = append(ev2, ev) })
	for _, req := range []struct {
		app      string
		deadline float64
	}{{"blocker", 4}, {"switcher", 8.5}} {
		if _, accepted, _, err := m2.Submit(0, req.app, req.deadline); err != nil || !accepted {
			t.Fatalf("submit %s: accepted=%v err=%v", req.app, accepted, err)
		}
	}
	swap := ev1[len(ev1)-1]
	if swap.Type != api.EventScheduleSwapped {
		t.Fatalf("last live event is %s, want schedule_swapped", swap.Type)
	}
	if err := m2.ReplaySwap(swap.At, swap.Payload); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ev1, ev2) {
		t.Errorf("event logs diverge:\n live   %+v\n replay %+v", ev1, ev2)
	}
	if got := m2.Stats().Swapped; got != 1 {
		t.Errorf("replayed Swapped = %d, want 1", got)
	}
	if !reflect.DeepEqual(m1.CurrentSchedule(), m2.CurrentSchedule()) {
		t.Error("replayed schedule differs from the live swap")
	}
	if _, err := m1.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Drain(); err != nil {
		t.Fatal(err)
	}
	if e1, e2 := m1.Stats().Energy, m2.Stats().Energy; e1 != e2 {
		t.Errorf("drained energies diverge: %v vs %v", e1, e2)
	}
}

func TestReplaySwapBadPayload(t *testing.T) {
	m, _ := swapFixture(t)
	if err := m.ReplaySwap(0, "{not json"); err == nil {
		t.Error("corrupt payload accepted")
	}
}
