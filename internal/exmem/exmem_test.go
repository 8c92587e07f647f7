package exmem

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"adaptrm/internal/core"
	"adaptrm/internal/job"
	"adaptrm/internal/lagrange"
	"adaptrm/internal/motiv"
	"adaptrm/internal/opset"
	"adaptrm/internal/platform"
	"adaptrm/internal/sched"
)

func TestName(t *testing.T) {
	if New().Name() != "EX-MEM" {
		t.Error("name wrong")
	}
}

func TestSingleJobOptimal(t *testing.T) {
	jobs := job.Set{{ID: 1, Table: motiv.Lambda1(), Deadline: 9, Remaining: 1}}
	plat := motiv.Platform()
	k, err := New().Schedule(jobs, plat, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Validate(plat, jobs, 0); err != nil {
		t.Fatal(err)
	}
	if got := k.Energy(jobs); math.Abs(got-8.90) > 1e-9 {
		t.Errorf("energy = %v, want 8.90", got)
	}
	if s := New(); s.LastStats().Nodes != 0 {
		t.Error("fresh scheduler has stats")
	}
}

// On scenario S1 the optimum within the cut-at-completion class is the
// Fig. 1(c) schedule: 12.95 J from t=1 (14.63 J including [0,1)).
func TestS1Optimal(t *testing.T) {
	jobs := job.Set(motiv.ScenarioS1AtT1())
	plat := motiv.Platform()
	s := New()
	k, err := s.Schedule(jobs, plat, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Validate(plat, jobs, 1); err != nil {
		t.Fatal(err)
	}
	total := k.Energy(jobs) + motiv.EnergyBeforeT1
	if math.Abs(total-14.63) > 0.01 {
		t.Errorf("S1 optimum = %.3f, want 14.63", total)
	}
	if st := s.LastStats(); st.Nodes == 0 {
		t.Error("stats not recorded")
	}
}

// S2 is schedulable by the adaptive class with the same energy.
func TestS2Optimal(t *testing.T) {
	jobs := job.Set(motiv.ScenarioS2AtT1())
	plat := motiv.Platform()
	k, err := New().Schedule(jobs, plat, 1)
	if err != nil {
		t.Fatal(err)
	}
	total := k.Energy(jobs) + motiv.EnergyBeforeT1
	if math.Abs(total-14.63) > 0.01 {
		t.Errorf("S2 optimum = %.3f, want 14.63", total)
	}
}

// EX-MEM is the reference: no heuristic may beat it (Table IV ratios ≥ 1).
func TestReferenceOptimality(t *testing.T) {
	plat := motiv.Platform()
	cases := []job.Set{
		motiv.ScenarioS1AtT1(),
		{
			{ID: 1, Table: motiv.Lambda1(), Deadline: 20, Remaining: 1},
			{ID: 2, Table: motiv.Lambda2(), Deadline: 12, Remaining: 0.8},
		},
		{
			{ID: 1, Table: motiv.Lambda2(), Deadline: 15, Remaining: 1},
			{ID: 2, Table: motiv.Lambda2(), Deadline: 9, Remaining: 0.5},
			{ID: 3, Table: motiv.Lambda1(), Deadline: 25, Remaining: 0.9},
		},
	}
	t0 := 1.0
	for ci, jobs := range cases {
		opt, err := New().Schedule(jobs, plat, t0)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		optE := opt.Energy(jobs)
		for _, s := range []sched.Scheduler{core.New(), lagrange.New()} {
			k, err := s.Schedule(jobs, plat, t0)
			if err != nil {
				continue
			}
			if k.Energy(jobs) < optE-1e-6 {
				t.Errorf("case %d: %s energy %v beats EX-MEM %v",
					ci, s.Name(), k.Energy(jobs), optE)
			}
		}
	}
}

// Pure exhaustive and branch-and-bound modes must agree exactly.
func TestPureMatchesPruned(t *testing.T) {
	plat := motiv.Platform()
	cases := []job.Set{
		motiv.ScenarioS1AtT1(),
		motiv.ScenarioS2AtT1(),
		{
			{ID: 1, Table: motiv.Lambda2(), Deadline: 8, Remaining: 1},
			{ID: 2, Table: motiv.Lambda2(), Deadline: 8, Remaining: 1},
		},
		{
			{ID: 1, Table: motiv.Lambda1(), Deadline: 30, Remaining: 0.7},
			{ID: 2, Table: motiv.Lambda2(), Deadline: 10, Remaining: 0.9},
			{ID: 3, Table: motiv.Lambda2(), Deadline: 18, Remaining: 1},
		},
	}
	for ci, jobs := range cases {
		fast, errF := New().Schedule(jobs, plat, 1)
		pure, errP := NewWithOptions(Options{PureExhaustive: true}).Schedule(jobs, plat, 1)
		if (errF == nil) != (errP == nil) {
			t.Fatalf("case %d: feasibility disagrees: %v vs %v", ci, errF, errP)
		}
		if errF != nil {
			continue
		}
		ef, ep := fast.Energy(jobs), pure.Energy(jobs)
		if math.Abs(ef-ep) > 1e-6 {
			t.Errorf("case %d: pruned %v vs pure %v", ci, ef, ep)
		}
	}
}

// Twin jobs (identical table, ratio, deadline) must collapse states and
// still produce a valid optimal schedule.
func TestTwinJobs(t *testing.T) {
	plat := motiv.Platform()
	jobs := job.Set{
		{ID: 1, Table: motiv.Lambda2(), Deadline: 14, Remaining: 1},
		{ID: 2, Table: motiv.Lambda2(), Deadline: 14, Remaining: 1},
	}
	k, err := New().Schedule(jobs, plat, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Validate(plat, jobs, 0); err != nil {
		t.Fatal(err)
	}
}

// A case whose only feasible schedules switch operating points mid-job:
// MMKP-MDF (one point per job) must fail, EX-MEM must succeed. This is
// the mechanism behind EX-MEM's higher scheduling rate in Fig. 2.
func TestAdaptationBeyondMDF(t *testing.T) {
	plat := platform.Motivational2L2B()
	blocker := &opset.Table{App: "blocker", Points: []opset.Point{
		{Alloc: platform.Alloc{1, 2}, Time: 4, Energy: 5},
	}}
	blocker.SortByEnergy()
	switcher := &opset.Table{App: "switcher", Points: []opset.Point{
		{Alloc: platform.Alloc{1, 0}, Time: 20, Energy: 2},
		{Alloc: platform.Alloc{2, 2}, Time: 5, Energy: 10},
	}}
	switcher.SortByEnergy()
	jobs := job.Set{
		{ID: 1, Table: blocker, Deadline: 4, Remaining: 1},
		{ID: 2, Table: switcher, Deadline: 8.5, Remaining: 1},
	}
	if _, err := core.New().Schedule(jobs, plat, 0); !errors.Is(err, sched.ErrInfeasible) {
		t.Fatalf("MDF unexpectedly handled the switching case: %v", err)
	}
	k, err := New().Schedule(jobs, plat, 0)
	if err != nil {
		t.Fatalf("EX-MEM failed: %v", err)
	}
	if err := k.Validate(plat, jobs, 0); err != nil {
		t.Fatal(err)
	}
	// Job 2 must use both of its points.
	used := map[int]bool{}
	for _, seg := range k.Segments {
		for _, p := range seg.Placements {
			if p.JobID == 2 {
				used[p.Point] = true
			}
		}
	}
	if len(used) < 2 {
		t.Errorf("job 2 used %d distinct points, want 2", len(used))
	}
}

func TestInfeasibleRejected(t *testing.T) {
	jobs := job.Set{{ID: 1, Table: motiv.Lambda1(), Deadline: 1, Remaining: 1}}
	_, err := New().Schedule(jobs, motiv.Platform(), 0)
	if !errors.Is(err, sched.ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestNodeBudget(t *testing.T) {
	jobs := job.Set{
		{ID: 1, Table: motiv.Lambda1(), Deadline: 60, Remaining: 1},
		{ID: 2, Table: motiv.Lambda1(), Deadline: 55, Remaining: 1},
		{ID: 3, Table: motiv.Lambda2(), Deadline: 50, Remaining: 1},
	}
	s := NewWithOptions(Options{NodeLimit: 10})
	_, err := s.Schedule(jobs, motiv.Platform(), 0)
	if !errors.Is(err, ErrBudget) {
		t.Errorf("err = %v, want ErrBudget", err)
	}
}

func TestInvalidInputs(t *testing.T) {
	if _, err := New().Schedule(nil, motiv.Platform(), 0); err == nil {
		t.Error("empty set accepted")
	}
}

func TestDoesNotMutate(t *testing.T) {
	jobs := job.Set(motiv.ScenarioS1AtT1())
	before := jobs.Clone()
	if _, err := New().Schedule(jobs, motiv.Platform(), 1); err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if jobs[i].Remaining != before[i].Remaining {
			t.Errorf("job %d mutated", jobs[i].ID)
		}
	}
}

// mdfGapCase builds a feasible case where MMKP-MDF (one operating point
// per job for the job's whole lifetime) is strictly suboptimal: the
// blocker owns both big cores until t=4, so the switcher's cheap point
// alone misses its deadline and MDF must commit to the expensive
// single-alloc point for the full job — while the adaptive class runs
// the cheap point beside the blocker and switches to the fast point
// once the big cores free up. This is the energy-side analogue of
// TestAdaptationBeyondMDF (where MDF fails outright).
func mdfGapCase() (job.Set, platform.Platform) {
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
	jobs := job.Set{
		{ID: 1, Table: blocker, Deadline: 4, Remaining: 1},
		{ID: 2, Table: switcher, Deadline: 8.5, Remaining: 1},
	}
	return jobs, plat
}

// The anytime entry point must return a schedule strictly cheaper than
// the MDF incumbent on the gap case, and prove optimality (the
// ErrNoImprovement outcome) when re-seeded with its own result.
func TestScheduleBudgetedImproves(t *testing.T) {
	jobs, plat := mdfGapCase()
	mk, err := core.New().Schedule(jobs, plat, 0)
	if err != nil {
		t.Fatalf("MDF infeasible on the gap case: %v", err)
	}
	incumbent := mk.Energy(jobs)
	k, err := New().ScheduleBudgeted(jobs, plat, 0, incumbent)
	if err != nil {
		t.Fatalf("ScheduleBudgeted: %v (incumbent %v)", err, incumbent)
	}
	if err := k.Validate(plat, jobs, 0); err != nil {
		t.Fatal(err)
	}
	refined := k.Energy(jobs)
	if refined >= incumbent-1e-9 {
		t.Errorf("refined energy %v does not beat incumbent %v", refined, incumbent)
	}
	if _, err := New().ScheduleBudgeted(jobs, plat, 0, refined); !errors.Is(err, ErrNoImprovement) {
		t.Errorf("re-seeded search: %v, want ErrNoImprovement", err)
	}
}

// An infeasible problem folds into ErrNoImprovement: the caller keeps
// the incumbent, whatever it was.
func TestScheduleBudgetedInfeasible(t *testing.T) {
	jobs := job.Set{{ID: 1, Table: motiv.Lambda1(), Deadline: 1, Remaining: 1}}
	if _, err := New().ScheduleBudgeted(jobs, motiv.Platform(), 0, math.Inf(1)); !errors.Is(err, ErrNoImprovement) {
		t.Errorf("err = %v, want ErrNoImprovement", err)
	}
}

// Exhausting the node budget returns ErrBudget, never a schedule.
func TestScheduleBudgetedBudget(t *testing.T) {
	jobs := job.Set{
		{ID: 1, Table: motiv.Lambda1(), Deadline: 60, Remaining: 1},
		{ID: 2, Table: motiv.Lambda1(), Deadline: 55, Remaining: 1},
		{ID: 3, Table: motiv.Lambda2(), Deadline: 50, Remaining: 1},
	}
	s := NewWithOptions(Options{NodeLimit: 10})
	if _, err := s.ScheduleBudgeted(jobs, motiv.Platform(), 0, math.Inf(1)); !errors.Is(err, ErrBudget) {
		t.Errorf("err = %v, want ErrBudget", err)
	}
}

// Calls that overlap on one Scheduler must not share search buffers:
// each must return the schedule a lone call returns.
func TestConcurrentCallsMatchSerial(t *testing.T) {
	plat := motiv.Platform()
	cases := []job.Set{
		motiv.ScenarioS1AtT1(),
		motiv.ScenarioS2AtT1(),
		{
			{ID: 1, Table: motiv.Lambda1(), Deadline: 30, Remaining: 0.7},
			{ID: 2, Table: motiv.Lambda2(), Deadline: 10, Remaining: 0.9},
			{ID: 3, Table: motiv.Lambda2(), Deadline: 18, Remaining: 1},
		},
	}
	want := make([]string, len(cases))
	for ci, jobs := range cases {
		k, err := New().Schedule(jobs, plat, 1)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		want[ci] = k.String()
	}
	s := New()
	const workers = 4
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for round := 0; round < 20; round++ {
				for ci, jobs := range cases {
					k, err := s.Schedule(jobs, plat, 1)
					if err != nil {
						errs <- fmt.Errorf("case %d: %v", ci, err)
						return
					}
					if got := k.String(); got != want[ci] {
						errs <- fmt.Errorf("case %d: concurrent schedule\n%s\nwant\n%s", ci, got, want[ci])
						return
					}
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
