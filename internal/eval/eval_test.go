package eval

import (
	"bytes"
	"strings"
	"testing"

	"adaptrm/internal/core"
	"adaptrm/internal/dse"
	"adaptrm/internal/exmem"
	"adaptrm/internal/lagrange"
	"adaptrm/internal/platform"
	"adaptrm/internal/sched"
	"adaptrm/internal/workload"
)

// miniSuite builds a reduced suite (fast enough for unit tests) with the
// paper's generation rules.
func miniSuite(t *testing.T) ([]workload.Case, platform.Platform) {
	t.Helper()
	plat := platform.OdroidXU4()
	lib, err := dse.StandardLibrary(plat)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[workload.Level][4]int{
		workload.Weak:  {3, 6, 6, 4},
		workload.Tight: {3, 8, 8, 5},
	}
	cases, err := workload.Suite(lib, workload.Params{Seed: 11, Counts: counts})
	if err != nil {
		t.Fatal(err)
	}
	return cases, plat
}

func allSchedulers() []sched.Scheduler {
	return []sched.Scheduler{exmem.New(), lagrange.New(), core.New()}
}

func TestRunAndReports(t *testing.T) {
	cases, plat := miniSuite(t)
	res, err := Run(cases, allSchedulers(), plat, RunOptions{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.InvalidCount() != 0 {
		t.Fatalf("%d invalid schedules produced", res.InvalidCount())
	}
	if len(res.Schedulers) != 3 {
		t.Fatalf("schedulers = %v", res.Schedulers)
	}

	// Fig. 2: rates in [0,1]; EX-MEM must dominate the heuristics on
	// every tight group (it is exact within the class).
	rate := NewRateReport(res, workload.Tight)
	for j := 0; j < 4; j++ {
		ex := rate.Rate["EX-MEM"][j]
		for _, s := range []string{"MMKP-LR", "MMKP-MDF"} {
			if rate.Rate[s][j] > ex+1e-9 {
				t.Errorf("%s rate %.3f beats EX-MEM %.3f on %d jobs", s, rate.Rate[s][j], ex, j+1)
			}
		}
	}
	var buf bytes.Buffer
	rate.Render(&buf)
	if !strings.Contains(buf.String(), "Scheduling rate") {
		t.Error("rate render empty")
	}
	buf.Reset()
	rate.WriteCSV(&buf)
	if !strings.Contains(buf.String(), "scheduler,jobs,level,rate") {
		t.Error("rate CSV header missing")
	}

	// Table IV: relative energies ≥ 1 (EX-MEM is optimal), and MDF must
	// not be worse than LR overall.
	er, err := NewEnergyReport(res, "EX-MEM")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range er.Schedulers {
		if v := er.AllLevels[s]; v < 1-1e-9 {
			t.Errorf("%s all-levels geomean %.4f below 1", s, v)
		}
	}
	if er.AllLevels["MMKP-MDF"] > er.AllLevels["MMKP-LR"]+1e-9 {
		t.Errorf("MDF %.4f worse than LR %.4f overall", er.AllLevels["MMKP-MDF"], er.AllLevels["MMKP-LR"])
	}
	buf.Reset()
	er.Render(&buf)
	if !strings.Contains(buf.String(), "Table IV") {
		t.Error("energy render empty")
	}
	buf.Reset()
	er.WriteCSV(&buf)
	if !strings.Contains(buf.String(), "geomean_rel_energy") {
		t.Error("energy CSV header missing")
	}

	// Fig. 3: curves sorted, MDF has at least as many optimal cases as
	// LR (paper: 69.6% vs 9.0%).
	sc := NewSCurveReport(er)
	for s, curve := range sc.Curves {
		for i := 1; i < len(curve); i++ {
			if curve[i-1] > curve[i] {
				t.Fatalf("%s curve not sorted", s)
			}
		}
	}
	if sc.OptimalCount["MMKP-MDF"] < sc.OptimalCount["MMKP-LR"] {
		t.Errorf("MDF optimal count %d below LR %d",
			sc.OptimalCount["MMKP-MDF"], sc.OptimalCount["MMKP-LR"])
	}
	buf.Reset()
	sc.Render(&buf)
	sc.WriteCSV(&buf)
	if buf.Len() == 0 {
		t.Error("scurve output empty")
	}

	// Fig. 4: boxplots populated; EX-MEM mean must exceed MDF's on
	// 4-job cases (exponential vs polynomial).
	tr := NewTimingReport(res)
	if tr.Box["EX-MEM"][3].Mean <= tr.Box["MMKP-MDF"][3].Mean {
		t.Errorf("EX-MEM 4-job mean %.6fs not above MDF %.6fs",
			tr.Box["EX-MEM"][3].Mean, tr.Box["MMKP-MDF"][3].Mean)
	}
	buf.Reset()
	tr.Render(&buf)
	tr.WriteCSV(&buf)
	if !strings.Contains(buf.String(), "scheduler,jobs,min") {
		t.Error("timing CSV header missing")
	}

	// Table III census.
	t3 := NewTable3Report(cases)
	if t3.Total != len(cases) {
		t.Error("census total wrong")
	}
	buf.Reset()
	t3.Render(&buf)
	if !strings.Contains(buf.String(), "Table III") {
		t.Error("census render empty")
	}
}

func TestRunErrors(t *testing.T) {
	cases, plat := miniSuite(t)
	if _, err := Run(nil, allSchedulers(), plat, RunOptions{}); err == nil {
		t.Error("empty cases accepted")
	}
	if _, err := Run(cases, nil, plat, RunOptions{}); err == nil {
		t.Error("empty schedulers accepted")
	}
	dup := []sched.Scheduler{core.New(), core.New()}
	if _, err := Run(cases, dup, plat, RunOptions{}); err == nil {
		t.Error("duplicate scheduler names accepted")
	}
}

func TestEnergyReportUnknownBaseline(t *testing.T) {
	cases, plat := miniSuite(t)
	res, err := Run(cases[:4], []sched.Scheduler{core.New()}, plat, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEnergyReport(res, "NOPE"); err == nil {
		t.Error("unknown baseline accepted")
	}
}

func TestProgressCallback(t *testing.T) {
	cases, plat := miniSuite(t)
	cases = cases[:6]
	calls := 0
	_, err := Run(cases, []sched.Scheduler{core.New()}, plat, RunOptions{
		Workers:  1,
		Progress: func(done, total int) { calls++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != len(cases) {
		t.Errorf("progress called %d times, want %d", calls, len(cases))
	}
}

// The worker count only changes which goroutine solves a case, never the
// outcome: one worker and four must agree case by case. The EX-MEM node
// limit is low enough that some searches run out of it, so budget-outs
// are compared too.
func TestRunWorkerCountInvariant(t *testing.T) {
	cases, plat := miniSuite(t)
	scheds := func() []sched.Scheduler {
		return []sched.Scheduler{
			exmem.NewWithOptions(exmem.Options{NodeLimit: 2_000}),
			lagrange.New(),
			core.New(),
		}
	}
	one, err := Run(cases, scheds(), plat, RunOptions{Workers: 1, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	four, err := Run(cases, scheds(), plat, RunOptions{Workers: 4, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	budgets := 0
	for _, name := range one.Schedulers {
		for ci, a := range one.PerCase[name] {
			b := four.PerCase[name][ci]
			if a.OK != b.OK || a.Energy != b.Energy || a.Budget != b.Budget || a.Invalid != b.Invalid {
				t.Errorf("%s case %s: 1 worker %+v, 4 workers %+v", name, cases[ci].Name, a, b)
			}
			if a.Budget {
				budgets++
			}
		}
	}
	if budgets == 0 {
		t.Error("no EX-MEM budget-outs: the node limit no longer bites on this suite")
	}
}
