package rm

import (
	"encoding/json"
	"fmt"
	"math"

	"adaptrm/internal/api"
	"adaptrm/internal/job"
	"adaptrm/internal/schedule"
)

// SwapSchedule offers k as a replacement for the current schedule. It
// is the commit point of anytime refinement: a background exact solve
// finished and believes it beats the plan admission installed. The
// manager accepts the swap only if k is valid for the active jobs at
// the current clock (constraints 2b–2e) AND strictly cheaper in
// remaining planned energy than the schedule in force — otherwise the
// offer is dropped and the incumbent stays. A refinement that raced a
// clock advance, a new admission, or a cancellation simply fails
// validation here; that is the normal way stale results die, not an
// error.
//
// An accepted swap emits EventScheduleSwapped carrying the full new
// schedule as its payload, so the event log stays a complete operation
// log: replay re-applies the logged schedule verbatim (ReplaySwap)
// instead of re-running the unbounded background search.
func (m *Manager) SwapSchedule(k *schedule.Schedule) bool {
	if k == nil || len(m.active) == 0 {
		return false
	}
	if err := k.Validate(m.plat, m.active, m.now); err != nil {
		return false
	}
	if m.remainingEnergy(k) >= m.remainingEnergy(m.current)-1e-9 {
		return false
	}
	payload, err := json.Marshal(k.Segments)
	if err != nil {
		return false
	}
	m.current = k.Clone()
	m.stats.Swapped++
	m.emit(api.Event{Type: api.EventScheduleSwapped, At: m.now, Payload: string(payload)})
	return true
}

// RefineSnapshot captures the inputs of a background refinement search:
// a clone of the active job set (with current remaining ratios), the
// manager clock, and the remaining planned energy of the schedule in
// force — the incumbent bound an anytime solver must strictly beat.
// ok is false when the device is idle (nothing to refine). The clone is
// the caller's to keep; the manager retains no reference to it.
func (m *Manager) RefineSnapshot() (jobs job.Set, now, incumbent float64, ok bool) {
	if len(m.active) == 0 || m.current == nil {
		return nil, 0, 0, false
	}
	return m.active.Clone(), m.now, m.remainingEnergy(m.current), true
}

// remainingEnergy sums the planned energy of k's fractions at or after
// the manager clock over the active jobs. Clipping at the clock makes
// the comparison fair when the schedule in force still carries
// already-executed portions; placements of retired jobs contribute
// nothing.
func (m *Manager) remainingEnergy(k *schedule.Schedule) float64 {
	total := 0.0
	for i := range k.Segments {
		seg := &k.Segments[i]
		lo := math.Max(seg.Start, m.now)
		dur := seg.End - lo
		if dur <= 0 {
			continue
		}
		for _, p := range seg.Placements {
			j := m.active.ByID(p.JobID)
			if j == nil {
				continue
			}
			pt := j.Table.Points[p.Point]
			total += pt.Energy * dur / pt.Time
		}
	}
	return total
}

// ReplaySwap re-applies a logged schedule swap verbatim: the payload an
// accepted SwapSchedule emitted is decoded and installed without
// re-validating or re-comparing — the original manager already made the
// decision, and replay's job is to reproduce it byte-identically. The
// re-emitted event reuses the logged payload string, so the recovery
// verifier sees an identical event.
func (m *Manager) ReplaySwap(at float64, payload string) error {
	var k schedule.Schedule
	if err := json.Unmarshal([]byte(payload), &k.Segments); err != nil {
		return fmt.Errorf("rm: swap payload: %w", err)
	}
	m.current = &k
	m.stats.Swapped++
	m.emit(api.Event{Type: api.EventScheduleSwapped, At: at, Payload: payload})
	return nil
}
