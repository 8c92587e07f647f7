// Package eval is the experiment harness: it runs schedulers over the
// generated test suite and aggregates exactly the quantities the paper
// reports — scheduling success rate (Fig. 2), relative energy versus
// EX-MEM (Table IV, Fig. 3) and per-case search time (Fig. 4) — plus the
// Table III suite census.
package eval

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"adaptrm/internal/exmem"
	"adaptrm/internal/platform"
	"adaptrm/internal/sched"
	"adaptrm/internal/workload"
)

// CaseResult records one (case, scheduler) evaluation.
type CaseResult struct {
	// OK reports whether a feasible schedule was produced (and, when
	// validation is on, passed the full constraint check).
	OK bool
	// Budget reports an EX-MEM node-budget timeout (neither success nor
	// proven infeasibility).
	Budget bool
	// Invalid reports a schedule that failed re-validation; always a
	// bug in the scheduler under test.
	Invalid bool
	// Energy is the schedule energy (2a) when OK.
	Energy float64
	// Elapsed is the scheduling wall time.
	Elapsed time.Duration
}

// Results holds a full evaluation run.
type Results struct {
	// Cases is the evaluated suite.
	Cases []workload.Case
	// Schedulers lists scheduler names in run order.
	Schedulers []string
	// PerCase maps scheduler name to per-case results, aligned with
	// Cases.
	PerCase map[string][]CaseResult
}

// RunOptions tunes an evaluation run.
type RunOptions struct {
	// Workers bounds parallel case evaluation; 0 means GOMAXPROCS. Use
	// 1 for maximum timing fidelity (Fig. 4).
	Workers int
	// Validate re-checks every produced schedule against constraints
	// (2b)–(2e). Slightly slower, catches scheduler bugs; on by default
	// in tests and the rmeval tool.
	Validate bool
	// Progress, when non-nil, receives one call per finished case with
	// the number of completed cases.
	Progress func(done, total int)
}

// Run evaluates every scheduler on every case.
func Run(cases []workload.Case, scheds []sched.Scheduler, plat platform.Platform, opt RunOptions) (*Results, error) {
	if len(cases) == 0 {
		return nil, errors.New("eval: no cases")
	}
	if len(scheds) == 0 {
		return nil, errors.New("eval: no schedulers")
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	res := &Results{Cases: cases, PerCase: make(map[string][]CaseResult, len(scheds))}
	for _, s := range scheds {
		if _, dup := res.PerCase[s.Name()]; dup {
			return nil, fmt.Errorf("eval: duplicate scheduler %q", s.Name())
		}
		res.Schedulers = append(res.Schedulers, s.Name())
		res.PerCase[s.Name()] = make([]CaseResult, len(cases))
	}

	// Cases are sharded over workers, and every worker calls the one
	// instance of each scheduler the caller passed, behind a
	// per-scheduler mutex. Schedulers keep state between calls (EX-MEM's
	// stats and search buffers, MMKP-MDF's packer scratch), so a shared
	// instance must not run two calls at once. All shipped schedulers
	// are safe for serialized reuse.
	//
	// The lock also keeps the timing honest. Without it, two workers
	// each running its own EX-MEM search on a 2-vCPU host roughly tripled
	// the suite's throughput, but raised the MMKP-MDF activation p99 from
	// about 15 to 70 µs and peak RSS by about a quarter: the Fig. 4
	// times would then measure contention, not the schedulers.
	type task struct{ ci int }
	tasks := make(chan task)
	var wg sync.WaitGroup
	locks := make([]sync.Mutex, len(scheds))
	var doneMu sync.Mutex
	done := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tk := range tasks {
				c := &cases[tk.ci]
				for si, s := range scheds {
					locks[si].Lock()
					start := time.Now()
					k, err := s.Schedule(c.Jobs, plat, c.T0)
					elapsed := time.Since(start)
					locks[si].Unlock()
					cr := CaseResult{Elapsed: elapsed}
					switch {
					case err == nil:
						cr.OK = true
						cr.Energy = k.Energy(c.Jobs)
						if opt.Validate {
							if verr := k.Validate(plat, c.Jobs, c.T0); verr != nil {
								cr.OK = false
								cr.Invalid = true
							}
						}
					case errors.Is(err, exmem.ErrBudget):
						cr.Budget = true
					}
					res.PerCase[s.Name()][tk.ci] = cr
				}
				if opt.Progress != nil {
					doneMu.Lock()
					done++
					d := done
					doneMu.Unlock()
					opt.Progress(d, len(cases))
				}
			}
		}()
	}
	for ci := range cases {
		tasks <- task{ci}
	}
	close(tasks)
	wg.Wait()
	return res, nil
}

// InvalidCount returns the number of produced-but-invalid schedules; any
// non-zero value indicates a scheduler bug.
func (r *Results) InvalidCount() int {
	n := 0
	for _, rs := range r.PerCase {
		for _, cr := range rs {
			if cr.Invalid {
				n++
			}
		}
	}
	return n
}

// groupIndex buckets case indices by (level, #jobs).
func (r *Results) groupIndex() map[workload.Level][4][]int {
	out := map[workload.Level][4][]int{}
	for ci := range r.Cases {
		c := &r.Cases[ci]
		arr := out[c.Level]
		nj := len(c.Jobs)
		if nj >= 1 && nj <= 4 {
			arr[nj-1] = append(arr[nj-1], ci)
		}
		out[c.Level] = arr
	}
	return out
}
