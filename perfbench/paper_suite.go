package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"adaptrm/internal/core"
	"adaptrm/internal/dse"
	"adaptrm/internal/eval"
	"adaptrm/internal/exmem"
	"adaptrm/internal/lagrange"
	"adaptrm/internal/platform"
	"adaptrm/internal/sched"
	"adaptrm/internal/workload"
)

// paper-suite: the paper's own evaluation. The Table III suite of the
// seed (both deadline levels × 1–4 jobs, 1676 cases) is solved by
// MMKP-MDF, MMKP-LR and EX-MEM through eval.Run with validation on.
// MMKP-MDF's activation times give the latency; a suite too small for a
// p99 with ten samples beyond it is re-run through MMKP-MDF until it has
// them. The suite is taken whole, not sampled: EX-MEM's search
// effort is heavy-tailed, and samples of a few hundred cases made
// ops_per_s differ by more than 10% from seed to seed.
const (
	// exmemNodeLimit bounds each EX-MEM search. A search that reaches it
	// ends with exmem.ErrBudget: neither a schedule nor a proof of
	// infeasibility, and excluded from every energy comparison. The
	// unbounded search takes seconds on some four-job cases.
	exmemNodeLimit = 10_000
)

// psRound is what one paper-suite round measured.
type psRound struct {
	setups     []float64 // seconds; the round's own set-up first
	library    time.Duration
	rebuild    []float64     // seconds
	suite      time.Duration // the three-solver eval.Run
	cases      int
	calls      int
	mdfLat     []float64 // µs, every MMKP-MDF activation
	budget     int       // EX-MEM searches that hit the node limit
	res        *eval.Results
	outcome    uint64
	mem0, mem1 memSample
	spans      []span
}

func runPaperSuite(cfg config) (*result, error) {
	plat := platform.OdroidXU4()
	res := &result{values: map[string]float64{}}
	var cases int
	plain, traced, err := measure(cfg,
		func(_ int, rec *recorder) (*psRound, error) { return paperSuiteRound(cfg, plat, rec) },
		func(i int, r *psRound) error {
			res.attempted += r.calls
			failed := r.res.InvalidCount()
			res.failed += failed
			res.check(failed == 0, "%d schedules failed validation", failed)
			if i == 0 {
				res.outcome = r.outcome
				cases = len(r.res.Cases)
				paperQuality(res, r.res)
			} else {
				res.check(r.outcome == res.outcome, "round %d results differ from round 0", i)
			}
			r.res = nil
			return nil
		})
	if err != nil {
		return nil, err
	}
	var setups, rates, rebuilds, allocs []float64
	var lat [][]float64
	for _, r := range plain {
		setups = append(setups, r.setups...)
		rates = append(rates, float64(r.cases)/r.suite.Seconds())
		rebuilds = append(rebuilds, r.rebuild...)
		allocs = append(allocs, float64(r.mem1.mallocs-r.mem0.mallocs)/float64(r.calls))
		lat = append(lat, r.mdfLat)
	}
	p50, p99, ok := latencyOf(lat)
	res.check(ok, "too few latency samples for a p99")
	res.values["setup_s"] = median(setups)
	res.values["ops_per_s"] = median(rates)
	res.values["latency_p50_us"] = p50
	res.values["latency_p99_us"] = p99
	res.values["recovery_s"] = median(rebuilds)
	res.values["allocs_per_op"] = median(allocs)
	res.values["peak_rss_mb"] = peakRSSMiB()
	if cfg.trace {
		paperLayers(res, traced, cases, p50)
	}
	return res, nil
}

// paperQuality reports the paper's quality figures for one round and
// checks them: no MMKP-MDF schedule may beat exact EX-MEM, and EX-MEM may
// not prove infeasible a case MMKP-MDF scheduled.
func paperQuality(res *result, r *eval.Results) {
	mdf, ex := r.PerCase["MMKP-MDF"], r.PerCase["EX-MEM"]
	var tight, tightOK, jobs int
	var energy float64
	for ci, c := range r.Cases {
		m, e := mdf[ci], ex[ci]
		if c.Level == workload.Tight {
			tight++
			if m.OK {
				tightOK++
			}
		}
		if m.OK {
			jobs += len(c.Jobs)
			energy += m.Energy
		}
		res.check(!m.OK || !e.OK || m.Energy >= e.Energy*(1-1e-9),
			"case %s: MMKP-MDF energy %g below exact EX-MEM energy %g", c.Name, m.Energy, e.Energy)
		res.check(!m.OK || e.OK || e.Budget, "case %s: EX-MEM found no schedule MMKP-MDF found", c.Name)
	}
	res.values["accept_rate"] = ratio(float64(tightOK), float64(tight))
	res.values["energy_per_job_j"] = ratio(energy, float64(jobs))
	rep, err := eval.NewEnergyReport(r, "EX-MEM")
	if err != nil {
		res.check(false, "energy report: %v", err)
		return
	}
	res.values["energy_rel_exmem"] = rep.AllLevels["MMKP-MDF"]
}

// paperLayers computes the per-layer metrics of the traced rounds.
func paperLayers(res *result, traced []*psRound, cases int, untracedP50 float64) {
	v := res.values
	var lat [][]float64
	var cores, lr, ex, exShare, coreShare, budget, lib, gc []float64
	for _, r := range traced {
		lat = append(lat, r.mdfLat)
		c, l, e := ofLayer(r.spans, layerCore), ofLayer(r.spans, layerLagrange), ofLayer(r.spans, layerExmem)
		cores = append(cores, durations(c)...)
		lr = append(lr, durations(l)...)
		ex = append(ex, durations(e)...)
		all := float64(totalDur(c) + totalDur(l) + totalDur(e))
		coreShare = append(coreShare, ratio(float64(totalDur(c)), all))
		exShare = append(exShare, float64(totalDur(e))/float64(r.suite))
		budget = append(budget, float64(r.budget)/float64(cases))
		lib = append(lib, r.library.Seconds())
		gc = append(gc, float64(r.mem1.numGC-r.mem0.numGC))
	}
	cores, lr, ex = sortedCopy(cores), sortedCopy(lr), sortedCopy(ex)
	tracedP50, _, _ := latencyOf(lat)
	v["loadgen.trace_overhead_pct"] = 100 * (tracedP50 - untracedP50) / untracedP50
	v["core.solve_p50_us"] = percentile(cores, 50)
	v["core.solve_p99_us"] = percentile(cores, 99)
	v["core.solve_share"] = median(coreShare)
	v["lagrange.solve_p50_us"] = percentile(lr, 50)
	v["exmem.solve_p50_us"] = percentile(ex, 50)
	v["exmem.solve_p99_us"] = percentile(ex, 99)
	v["exmem.share_of_suite_s"] = median(exShare)
	v["exmem.budget_share"] = median(budget)
	v["dse.library_s"] = median(lib)
	v["process.gc_cycles"] = median(gc)
	v["process.heap_peak_mb"] = heapPeakMiB()
}

// paperSuiteRound builds the library and the suite, runs the three
// solvers over it, re-runs MMKP-MDF while its tail is short, and times
// rebuilding the suite from the seed.
func paperSuiteRound(cfg config, plat platform.Platform, rec *recorder) (*psRound, error) {
	r := &psRound{}
	var suite []workload.Case
	build := func() (err error) {
		suite, r.library, err = buildSuite(plat, cfg.seed, cfg.scale)
		return err
	}
	setup, err := timed(build)
	if err != nil {
		return nil, err
	}
	r.setups = append(r.setups, setup)
	r.cases = len(suite)

	mdf := traceScheduler(core.New(), rec, layerCore, -1)
	scheds := []sched.Scheduler{
		mdf,
		traceScheduler(lagrange.New(), rec, layerLagrange, -1),
		traceScheduler(exmem.NewWithOptions(exmem.Options{NodeLimit: exmemNodeLimit}), rec, layerExmem, -1),
	}
	r.mem0 = readMem()
	t := time.Now()
	res, err := eval.Run(suite, scheds, plat, eval.RunOptions{Workers: runtime.GOMAXPROCS(0), Validate: true})
	if err != nil {
		return nil, err
	}
	r.suite = time.Since(t)
	r.calls = 3 * len(suite)
	r.res = res
	h := fnv.New64a()
	for _, name := range res.Schedulers {
		for _, cr := range res.PerCase[name] {
			b := binary.LittleEndian.AppendUint64(nil, math.Float64bits(cr.Energy))
			b = append(b, b2u(cr.OK), b2u(cr.Budget), b2u(cr.Invalid))
			h.Write(b)
			if cr.Budget {
				r.budget++
			}
		}
	}
	r.outcome = h.Sum64()
	r.mdfLat = appendElapsed(nil, res.PerCase["MMKP-MDF"])
	for tailPercentile(len(r.mdfLat)) < 99 {
		again, err := eval.Run(suite, []sched.Scheduler{mdf}, plat, eval.RunOptions{Workers: runtime.GOMAXPROCS(0), Validate: true})
		if err != nil {
			return nil, err
		}
		if n := again.InvalidCount(); n > 0 {
			return nil, fmt.Errorf("MMKP-MDF re-run: %d invalid schedules", n)
		}
		r.calls += len(suite)
		r.mdfLat = appendElapsed(r.mdfLat, again.PerCase["MMKP-MDF"])
	}
	r.mem1 = readMem()
	if rec != nil {
		r.spans = rec.take()
	}

	// Recovery: the solvers keep no state, so a restarted evaluation
	// recovers by rebuilding its inputs from the seed; the rebuilt suite
	// must equal the original. Set-up is timed a few more times too.
	orig := suite
	for k := 0; k <= extraSetups; k++ {
		took, err := timed(build)
		if err != nil {
			return nil, err
		}
		if !sameCases(orig, suite) {
			return nil, errors.New("the suite rebuilt from the seed differs from the original")
		}
		r.rebuild = append(r.rebuild, took)
		if k > 0 {
			setup, err := timed(build)
			if err != nil {
				return nil, err
			}
			r.setups = append(r.setups, setup)
		}
	}
	return r, nil
}

// buildSuite builds the standard library and the Table III suite of
// the seed, its group counts scaled by scale. It also returns how long
// the library took.
func buildSuite(plat platform.Platform, seed int64, scale float64) ([]workload.Case, time.Duration, error) {
	t := time.Now()
	lib, err := dse.StandardLibrary(plat)
	if err != nil {
		return nil, 0, err
	}
	libTime := time.Since(t)
	counts := workload.Table3Counts()
	for level, cs := range counts {
		for i, c := range cs {
			cs[i] = int(math.Ceil(float64(c) * scale))
		}
		counts[level] = cs
	}
	suite, err := workload.Suite(lib, workload.Params{Seed: seed, Counts: counts})
	return suite, libTime, err
}

// sameCases reports whether two samples hold the same cases.
func sameCases(a, b []workload.Case) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].T0 != b[i].T0 || len(a[i].Jobs) != len(b[i].Jobs) {
			return false
		}
		for j, x := range a[i].Jobs {
			y := b[i].Jobs[j]
			if x.Table.Name() != y.Table.Name() || x.Deadline != y.Deadline || x.Remaining != y.Remaining {
				return false
			}
		}
	}
	return true
}

func appendElapsed(dst []float64, rs []eval.CaseResult) []float64 {
	for _, cr := range rs {
		dst = append(dst, micros(cr.Elapsed))
	}
	return dst
}

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}
