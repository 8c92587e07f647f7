package api

import (
	"reflect"
	"time"

	"adaptrm/internal/control"
)

// StatsRequest fetches statistics: fleet-wide when Device is nil,
// otherwise for the single addressed device.
type StatsRequest struct {
	// Device optionally selects one device.
	Device *int `json:"device,omitempty"`
}

// StatsResult aggregates service activity. It is the only statistics
// type of the service: the fleet fills it, the HTTP transport carries
// it, the router merges it and /metrics exports it. Every per-field
// decision — determinism class, fleet-wide merge rule, Prometheus
// family — lives in one row of StatsSchema, and Deterministic,
// MergeStats and the /metrics service counters are loops over that
// table. Adding a statistic means one field here plus one row there
// (and the code that fills it).
type StatsResult struct {
	// Devices is the number of devices covered, Shards the worker count
	// (0 when a single device is addressed).
	Devices int `json:"devices"`
	Shards  int `json:"shards,omitempty"`
	// Submitted counts all requests, Accepted and Rejected its split.
	Submitted int `json:"submitted"`
	Accepted  int `json:"accepted"`
	Rejected  int `json:"rejected"`
	// Completed counts finished jobs, DeadlineMisses the violations.
	Completed      int `json:"completed"`
	DeadlineMisses int `json:"deadline_misses"`
	// Cancelled counts jobs aborted while active. With the others it
	// closes the lifecycle ledger: accepted = completed + cancelled +
	// currently active.
	Cancelled int `json:"cancelled"`
	// Energy is the total energy of all executed schedule fractions (J).
	Energy float64 `json:"energy"`
	// Activations counts scheduler invocations (cache hits included — a
	// hit is still a manager activation), SchedulingTime their
	// cumulative wall time (serialised as nanoseconds).
	Activations    int           `json:"activations"`
	SchedulingTime time.Duration `json:"scheduling_time_ns"`
	// Cache* sum the schedule-cache counters across the fleet (zero
	// when caching is off). Per-device results omit them: device stats
	// come from the runtime manager, which does not see the cache.
	CacheHits      int `json:"cache_hits,omitempty"`
	CacheMisses    int `json:"cache_misses,omitempty"`
	CacheStale     int `json:"cache_stale,omitempty"`
	CacheEvictions int `json:"cache_evictions,omitempty"`
	CacheRepacks   int `json:"cache_repacks,omitempty"`
	// CacheSharedHits counts lookups served from the fleet-wide shared
	// cache tier after missing the device-local first level, and
	// CachePromotions the entries device caches promoted into that tier
	// (zero without a shared tier; fleet-wide results only).
	CacheSharedHits int `json:"cache_shared_hits,omitempty"`
	CachePromotions int `json:"cache_promotions,omitempty"`
	// ScheduleSwaps counts accepted anytime-refinement schedule swaps:
	// a background exact search beat the admitted schedule and the
	// replacement passed the manager's validation.
	ScheduleSwaps int `json:"schedule_swaps,omitempty"`
	// Refine* mirror the anytime refinement pool's counters (fleet-wide
	// results only): exact searches run, the subset that beat their
	// incumbent, tasks skipped because the shared tier already held an
	// exact result, and offers dropped on a full refinement queue.
	RefineSearches int `json:"refine_searches,omitempty"`
	RefineImproved int `json:"refine_improved,omitempty"`
	RefineSkipped  int `json:"refine_skipped,omitempty"`
	RefineDropped  int `json:"refine_dropped,omitempty"`
	// MaxQueueDepth is the mailbox high-water mark.
	MaxQueueDepth int `json:"max_queue_depth,omitempty"`
	// CoalescedBatches counts multi-request batched activations and
	// CoalescedRequests the submits that rode in them (fleet-wide
	// results only).
	CoalescedBatches  int `json:"coalesced_batches,omitempty"`
	CoalescedRequests int `json:"coalesced_requests,omitempty"`
	// WatchSubscribers gauges the open watch subscriptions and
	// WatchDropped counts events discarded from slow subscribers'
	// buffers (fleet-wide results only).
	WatchSubscribers int `json:"watch_subscribers,omitempty"`
	WatchDropped     int `json:"watch_dropped,omitempty"`
	// QuotaBudgetRefusals and QuotaRateRefusals count requests the
	// transport refused for an exhausted request budget or an empty
	// token bucket. They are transport-level: the in-process fleet has
	// no quotas and always reports zero; the HTTP daemon fills them on
	// fleet-wide results, summed over its tenants.
	QuotaBudgetRefusals int `json:"quota_budget_refusals,omitempty"`
	QuotaRateRefusals   int `json:"quota_rate_refusals,omitempty"`
	// ControlMode names the degradation controller's current mode
	// ("normal", "heuristic_only", "shedding"; empty without a
	// controller). Shed counts admission requests rejected early with
	// ErrOverloaded before a scheduler activation was spent, and
	// ControlTicks / ControlModeChanges the controller's decision
	// counters (fleet-wide results only).
	ControlMode        string `json:"control_mode,omitempty"`
	Shed               int    `json:"shed,omitempty"`
	ControlTicks       int    `json:"control_ticks,omitempty"`
	ControlModeChanges int    `json:"control_mode_changes,omitempty"`
}

// AcceptRate returns Accepted / Submitted, or 0 when idle.
func (s StatsResult) AcceptRate() float64 {
	if s.Submitted == 0 {
		return 0
	}
	return float64(s.Accepted) / float64(s.Submitted)
}

// CacheHitRate returns CacheHits / (CacheHits + CacheMisses), or 0.
func (s StatsResult) CacheHitRate() float64 {
	if s.CacheHits+s.CacheMisses == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.CacheHits+s.CacheMisses)
}

// StatClass says whether a statistic is reproducible.
type StatClass int

const (
	// ClassDeterministic fields are identical across transports, shard
	// counts and goroutine interleavings for the same per-device
	// request order; the equivalence suites compare them.
	ClassDeterministic StatClass = iota
	// ClassOperational fields depend on wall clock, queue timing,
	// background workers or the transport.
	ClassOperational
)

// MergeRule says how fleet-wide results of several nodes fold into
// one. Every node of a routed deployment hosts the full device space
// (the placement partitions traffic, not configuration), and a
// device's counters are zero on every node but its owner, so plain
// sums reconstruct exactly what a single fleet would report.
type MergeRule int

const (
	// MergeSum adds the nodes' values.
	MergeSum MergeRule = iota
	// MergeMax keeps the largest value.
	MergeMax
	// MergeWorstMode keeps the most degraded controller mode; nodes
	// without a controller (empty mode) or with an unparsable mode do
	// not count.
	MergeWorstMode
)

// StatField is one row of the stats schema: every decision about one
// StatsResult field.
type StatField struct {
	// Field names the StatsResult field.
	Field string
	// Class is the field's determinism class, Merge its fleet-wide
	// merge rule.
	Class StatClass
	Merge MergeRule
	// Metric is the /metrics family exporting the field ("" when the
	// scrape does not carry it), with its Help text and Kind
	// ("counter" or "gauge").
	Metric, Help, Kind string
	// PerDevice adds one device="N" sample per device after the
	// fleet-wide one.
	PerDevice bool
	// Control limits the family to scrapes whose service reports a
	// controller mode, so a controller-less scrape stays free of them.
	Control bool

	index int // position in StatsResult, resolved at init
}

// Value returns the field's value in s as a sample: integers exactly
// (isFloat false), Energy in joules and SchedulingTime in seconds, and
// a controller mode as its tier number (0 when empty or unparsable).
func (f StatField) Value(s StatsResult) (v float64, isFloat bool) {
	switch x := reflect.ValueOf(s).Field(f.index).Interface().(type) {
	case time.Duration:
		return x.Seconds(), true
	case float64:
		return x, true
	case string:
		m, _ := control.ParseMode(x)
		return float64(m), false
	case int:
		return float64(x), false
	}
	panic("api: stats field " + f.Field + " has no sample form")
}

// StatsSchema is the stats table, one row per StatsResult field, in
// /metrics emission order. Treat it as read-only.
var StatsSchema = []StatField{
	{Field: "Devices", Class: ClassDeterministic, Merge: MergeMax,
		Metric: "adaptrm_fleet_devices", Kind: "gauge", Help: "Devices in the fleet."},
	{Field: "Shards", Class: ClassOperational,
		Metric: "adaptrm_fleet_shards", Kind: "gauge", Help: "Shard worker goroutines."},
	{Field: "Submitted", Class: ClassDeterministic, PerDevice: true,
		Metric: "adaptrm_requests_submitted_total", Kind: "counter", Help: "Admission requests received."},
	{Field: "Accepted", Class: ClassDeterministic, PerDevice: true,
		Metric: "adaptrm_requests_accepted_total", Kind: "counter", Help: "Admission requests accepted."},
	{Field: "Rejected", Class: ClassDeterministic, PerDevice: true,
		Metric: "adaptrm_requests_rejected_total", Kind: "counter", Help: "Admission requests rejected (no feasible schedule)."},
	{Field: "Completed", Class: ClassDeterministic, PerDevice: true,
		Metric: "adaptrm_jobs_completed_total", Kind: "counter", Help: "Jobs run to completion."},
	{Field: "Cancelled", Class: ClassDeterministic, PerDevice: true,
		Metric: "adaptrm_jobs_cancelled_total", Kind: "counter", Help: "Jobs cancelled while active."},
	{Field: "DeadlineMisses", Class: ClassDeterministic, PerDevice: true,
		Metric: "adaptrm_jobs_deadline_misses_total", Kind: "counter", Help: "Completed jobs that violated their deadline."},
	{Field: "Energy", Class: ClassDeterministic, PerDevice: true,
		Metric: "adaptrm_energy_joules_total", Kind: "counter", Help: "Energy of all executed schedule fractions."},
	// Activations and the admission counters stay deterministic under
	// worker-side coalescing only while coalesced arrivals are exactly
	// coincident; see fleet.Options.BatchWindow.
	{Field: "Activations", Class: ClassDeterministic, PerDevice: true,
		Metric: "adaptrm_scheduler_activations_total", Kind: "counter", Help: "Scheduler invocations (cache hits included)."},
	{Field: "SchedulingTime", Class: ClassOperational,
		Metric: "adaptrm_scheduler_busy_seconds_total", Kind: "counter", Help: "Cumulative scheduler wall time."},
	{Field: "CacheHits", Class: ClassDeterministic,
		Metric: "adaptrm_cache_hits_total", Kind: "counter", Help: "Schedule-cache hits."},
	{Field: "CacheMisses", Class: ClassDeterministic,
		Metric: "adaptrm_cache_misses_total", Kind: "counter", Help: "Schedule-cache misses."},
	{Field: "CacheStale", Class: ClassDeterministic,
		Metric: "adaptrm_cache_stale_total", Kind: "counter", Help: "Schedule-cache entries invalidated on reuse."},
	{Field: "CacheEvictions", Class: ClassDeterministic,
		Metric: "adaptrm_cache_evictions_total", Kind: "counter", Help: "Schedule-cache LRU evictions."},
	{Field: "CacheRepacks", Class: ClassDeterministic,
		Metric: "adaptrm_cache_repacks_total", Kind: "counter", Help: "Schedule-cache re-pack reuses."},
	{Field: "CacheSharedHits", Class: ClassDeterministic,
		Metric: "adaptrm_cache_shared_hits_total", Kind: "counter", Help: "Lookups served from the fleet-wide shared cache tier."},
	{Field: "CachePromotions", Class: ClassDeterministic,
		Metric: "adaptrm_cache_promotions_total", Kind: "counter", Help: "Entries promoted into the shared cache tier."},
	// Swaps are deterministic when refinement is stepped explicitly (the
	// test suites); background refinement workers make them depend on
	// search/traffic interleaving.
	{Field: "ScheduleSwaps", Class: ClassDeterministic, PerDevice: true,
		Metric: "adaptrm_schedule_swaps_total", Kind: "counter", Help: "Accepted anytime-refinement schedule swaps."},
	{Field: "RefineSearches", Class: ClassOperational,
		Metric: "adaptrm_refine_searches_total", Kind: "counter", Help: "Background exact refinement searches run."},
	{Field: "RefineImproved", Class: ClassOperational,
		Metric: "adaptrm_refine_improved_total", Kind: "counter", Help: "Refinement searches that beat their incumbent."},
	{Field: "RefineSkipped", Class: ClassOperational,
		Metric: "adaptrm_refine_skipped_total", Kind: "counter", Help: "Refinement tasks skipped (exact result already shared)."},
	{Field: "RefineDropped", Class: ClassOperational,
		Metric: "adaptrm_refine_dropped_total", Kind: "counter", Help: "Refinement offers dropped on a full queue."},
	// Coalescing counters are deterministic for explicit SubmitBatch
	// calls, which is what the equivalence suites drive; worker-side
	// BatchWindow coalescing makes them opportunistic.
	{Field: "CoalescedBatches", Class: ClassDeterministic,
		Metric: "adaptrm_coalesced_batches_total", Kind: "counter", Help: "Multi-request batched activations."},
	{Field: "CoalescedRequests", Class: ClassDeterministic,
		Metric: "adaptrm_coalesced_requests_total", Kind: "counter", Help: "Submits decided inside a coalesced batch."},
	{Field: "WatchSubscribers", Class: ClassOperational,
		Metric: "adaptrm_watch_subscribers", Kind: "gauge", Help: "Open watch subscriptions."},
	{Field: "WatchDropped", Class: ClassOperational,
		Metric: "adaptrm_watch_dropped_total", Kind: "counter", Help: "Events dropped from slow watch subscribers."},
	{Field: "ControlMode", Class: ClassOperational, Merge: MergeWorstMode, Control: true,
		Metric: "adaptrm_control_mode", Kind: "gauge", Help: "Degradation tier (0 normal, 1 heuristic-only, 2 shedding)."},
	{Field: "Shed", Class: ClassOperational, Control: true,
		Metric: "adaptrm_shed_total", Kind: "counter", Help: "Admission requests shed early with an overloaded error."},
	{Field: "ControlTicks", Class: ClassOperational, Control: true,
		Metric: "adaptrm_control_ticks_total", Kind: "counter", Help: "Degradation-controller decision ticks."},
	{Field: "ControlModeChanges", Class: ClassOperational, Control: true,
		Metric: "adaptrm_control_mode_changes_total", Kind: "counter", Help: "Degradation-tier transitions (both directions)."},
	{Field: "MaxQueueDepth", Class: ClassOperational, Merge: MergeMax,
		Metric: "adaptrm_queue_depth_max", Kind: "gauge", Help: "High-water mark of pending requests over all shard mailboxes."},
	// /metrics exports quota refusals per tenant from the transport's
	// own counters, not from these sums.
	{Field: "QuotaBudgetRefusals", Class: ClassOperational},
	{Field: "QuotaRateRefusals", Class: ClassOperational},
}

func init() {
	t := reflect.TypeOf(StatsResult{})
	for i := range StatsSchema {
		sf, ok := t.FieldByName(StatsSchema[i].Field)
		if !ok {
			panic("api: stats schema names unknown field " + StatsSchema[i].Field)
		}
		StatsSchema[i].index = sf.Index[0]
	}
}

// Deterministic zeroes every ClassOperational field, leaving only the
// values that must be identical across transports, shard counts and
// goroutine interleavings for the same per-device request order.
func (s StatsResult) Deterministic() StatsResult {
	v := reflect.ValueOf(&s).Elem()
	for _, f := range StatsSchema {
		if f.Class == ClassOperational {
			v.Field(f.index).SetZero()
		}
	}
	return s
}

// MergeStats folds fleet-wide results of several nodes into one, in
// slice order, applying each field's MergeRule.
func MergeStats(in []StatsResult) StatsResult {
	var out StatsResult
	ov := reflect.ValueOf(&out).Elem()
	for i := range in {
		iv := reflect.ValueOf(&in[i]).Elem()
		for _, f := range StatsSchema {
			o, x := ov.Field(f.index), iv.Field(f.index)
			switch {
			case f.Merge == MergeWorstMode:
				o.SetString(worseMode(o.String(), x.String()))
			case f.Merge == MergeMax:
				o.SetInt(max(o.Int(), x.Int()))
			case o.CanFloat():
				o.SetFloat(o.Float() + x.Float())
			default:
				o.SetInt(o.Int() + x.Int())
			}
		}
	}
	return out
}

// worseMode returns the more degraded of the current merged mode and
// one node's mode. Only parsable modes ever become the merged mode.
func worseMode(cur, node string) string {
	m, err := control.ParseMode(node)
	if err != nil {
		return cur
	}
	if c, err := control.ParseMode(cur); err != nil || m > c {
		return m.String()
	}
	return cur
}
