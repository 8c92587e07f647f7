package main

import (
	"fmt"

	"adaptrm/internal/api"
	"adaptrm/internal/core"
	"adaptrm/internal/exmem"
	"adaptrm/internal/fleet"
	"adaptrm/internal/opset"
	"adaptrm/internal/platform"
	"adaptrm/internal/rm"
)

// fleetRound is what a round of either fleet workload reports for the
// checks and the quality metrics.
type fleetRound struct {
	tally   tally
	outcome uint64
	// stats is the fleet after the last call, final after the closing
	// drain.
	stats, final api.StatsResult
	// snaps are the measured devices' snapshots after the last call.
	snaps    []*rm.Snapshot
	failures []string
}

func (r *fleetRound) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// settle adds round i to res: its counts and failures; on round 0 the
// quality metrics, otherwise the check that it repeats round 0. It drops
// the round's snapshots, which only round 0 needs.
func settle(res *result, plat platform.Platform, lib *opset.Library, i int, r *fleetRound) error {
	snaps := r.snaps
	r.snaps = nil
	res.attempted += r.tally.calls
	res.failed += r.tally.failed
	res.failures = append(res.failures, r.failures...)
	if i > 0 {
		res.check(r.outcome == res.outcome && r.final.Energy == res.energy, "round %d outcomes differ from round 0", i)
		return nil
	}
	res.outcome, res.energy = r.outcome, r.final.Energy
	mdf, ex, err := spotCheck(plat, lib, snaps)
	if err != nil {
		return err
	}
	res.check(mdf >= ex*(1-1e-9), "spot check: MDF energy %g below exact EX-MEM energy %g", mdf, ex)
	res.values["energy_rel_exmem"] = ratio(mdf, ex)
	res.values["accept_rate"] = ratio(float64(r.stats.Accepted), float64(r.stats.Submitted))
	res.values["energy_per_job_j"] = ratio(r.final.Energy, float64(r.final.Completed))
	return nil
}

// newFleetDevices gives each device its own MMKP-MDF scheduler, wrapped
// for tracing when rec is set.
func newFleetDevices(plat platform.Platform, lib *opset.Library, n int, rec *recorder) []fleet.DeviceConfig {
	devs := make([]fleet.DeviceConfig, n)
	for d := range devs {
		devs[d] = fleet.DeviceConfig{Platform: plat, Library: lib, Scheduler: traceScheduler(core.New(), rec, layerCore, d)}
	}
	return devs
}

// ledger is the deterministic part of a fleet's statistics: its counts
// and energy.
type ledger struct {
	Submitted, Accepted, Rejected, Completed, Cancelled, DeadlineMisses, Activations int
	Energy                                                                           float64
}

func ledgerOf(s api.StatsResult) ledger {
	return ledger{s.Submitted, s.Accepted, s.Rejected, s.Completed, s.Cancelled, s.DeadlineMisses, s.Activations, s.Energy}
}

// checkLedger checks the lifecycle ledger against the callers' own
// counts: submitted = accepted + rejected, and accepted = completed +
// cancelled + active.
func checkLedger(check func(bool, string, ...any), t tally, s api.StatsResult, active int) {
	check(t.submitted == s.Submitted && t.accepted == s.Accepted && t.rejected == s.Rejected && t.cancelled == s.Cancelled,
		"client counts (submitted %d, accepted %d, rejected %d, cancelled %d) differ from the service's (%d, %d, %d, %d)",
		t.submitted, t.accepted, t.rejected, t.cancelled, s.Submitted, s.Accepted, s.Rejected, s.Cancelled)
	check(s.Submitted == s.Accepted+s.Rejected, "submitted %d != accepted %d + rejected %d", s.Submitted, s.Accepted, s.Rejected)
	check(s.Accepted == s.Completed+s.Cancelled+active,
		"accepted %d != completed %d + cancelled %d + active %d", s.Accepted, s.Completed, s.Cancelled, active)
	check(s.DeadlineMisses == 0, "%d deadline misses", s.DeadlineMisses)
}

// rmLayer reports the runtime-manager and schedule-cache counters.
func rmLayer(v map[string]float64, s api.StatsResult) {
	v["rm.activations_per_submit"] = ratio(float64(s.Activations), float64(s.Submitted))
	v["rm.accepted"] = float64(s.Accepted)
	v["rm.rejected"] = float64(s.Rejected)
	v["rm.completed"] = float64(s.Completed)
	v["rm.cancelled"] = float64(s.Cancelled)
	v["rm.deadline_misses"] = float64(s.DeadlineMisses)
	v["schedcache.hit_rate"] = ratio(float64(s.CacheHits), float64(s.CacheHits+s.CacheMisses))
	v["schedcache.repacks"] = float64(s.CacheRepacks)
}

// spotCheck re-solves every device's final active job set, restored
// from its snapshot, with MMKP-MDF and exact EX-MEM, and returns the two
// energy totals over the sets both schedule.
func spotCheck(plat platform.Platform, lib *opset.Library, snaps []*rm.Snapshot) (mdf, ex float64, err error) {
	for _, s := range snaps {
		if len(s.Active) == 0 {
			continue
		}
		m, err := rm.New(plat, lib, core.New(), rm.Options{})
		if err != nil {
			return 0, 0, err
		}
		if err := m.Restore(s); err != nil {
			return 0, 0, err
		}
		jobs := m.ActiveJobs()
		k1, err1 := core.New().Schedule(jobs, plat, m.Now())
		k2, err2 := exmem.NewWithOptions(exmem.Options{NodeLimit: exmemNodeLimit}).Schedule(jobs, plat, m.Now())
		if err1 == nil && err2 == nil {
			mdf += k1.Energy(jobs)
			ex += k2.Energy(jobs)
		}
	}
	return mdf, ex, nil
}
