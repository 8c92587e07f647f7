package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestErrorIsByCode(t *testing.T) {
	sentinels := []*Error{
		ErrInfeasible, ErrUnknownDevice, ErrUnknownApp, ErrUnknownJob,
		ErrBadRequest, ErrOverloaded, ErrQuotaExceeded, ErrUnauthorized,
		ErrForbidden, ErrClosed, ErrInternal,
	}
	for i, s := range sentinels {
		if !errors.Is(s, s) {
			t.Errorf("%v does not match itself", s)
		}
		// The wire round-trip loses pointer identity but keeps the code.
		if rebuilt := FromCode(s.Code, "whatever detail"); !errors.Is(rebuilt, s) {
			t.Errorf("FromCode(%q) does not match its sentinel", s.Code)
		}
		for j, o := range sentinels {
			if i != j && errors.Is(s, o) {
				t.Errorf("%v matches unrelated %v", s, o)
			}
		}
	}
}

func TestErrorWrapping(t *testing.T) {
	err := Errf(ErrQuotaExceeded, "tenant %q spent %d", "acme", 10)
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Error("Errf result does not match its sentinel")
	}
	if errors.Is(err, ErrOverloaded) {
		t.Error("Errf result matches a different sentinel")
	}
	// Deeper chains still resolve to the first taxonomy code.
	deep := fmt.Errorf("outer: %w", err)
	if got := ErrorCode(deep); got != CodeQuotaExceeded {
		t.Errorf("ErrorCode = %q, want %q", got, CodeQuotaExceeded)
	}
	if got := ErrorCode(errors.New("plain")); got != CodeInternal {
		t.Errorf("ErrorCode(plain) = %q, want %q", got, CodeInternal)
	}
	if got := ErrorCode(nil); got != CodeInternal {
		t.Errorf("ErrorCode(nil) = %q, want %q", got, CodeInternal)
	}
}

func TestErrorJSONRoundTrip(t *testing.T) {
	wrapped := Errf(ErrUnknownDevice, "device %d of %d", 9, 4)
	onWire := FromCode(ErrorCode(wrapped), wrapped.Error())
	buf, err := json.Marshal(onWire)
	if err != nil {
		t.Fatal(err)
	}
	var back Error
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(&back, ErrUnknownDevice) {
		t.Errorf("decoded %+v does not match ErrUnknownDevice", back)
	}
	if back.Message == "" {
		t.Error("message lost in round-trip")
	}
}

func TestFromCodeUnknownFoldsToInternal(t *testing.T) {
	if e := FromCode("", "x"); e.Code != CodeInternal {
		t.Errorf("FromCode(\"\") = %q, want internal", e.Code)
	}
	// A newer server's code this client version does not know must
	// still match a sentinel, with the raw code kept in the message.
	e := FromCode("rate_limited", "slow down")
	if !errors.Is(e, ErrInternal) {
		t.Errorf("unknown code does not match ErrInternal: %+v", e)
	}
	if e.Message != "rate_limited: slow down" {
		t.Errorf("raw code lost: %q", e.Message)
	}
}

func TestStatsDeterministic(t *testing.T) {
	s := StatsResult{
		Devices: 3, Shards: 2, Submitted: 10, Accepted: 8,
		SchedulingTime: 5 * time.Second, MaxQueueDepth: 7,
	}
	d := s.Deterministic()
	if d.Shards != 0 || d.SchedulingTime != 0 || d.MaxQueueDepth != 0 {
		t.Errorf("wall-clock fields not stripped: %+v", d)
	}
	if d.Devices != 3 || d.Submitted != 10 || d.Accepted != 8 {
		t.Errorf("deterministic fields altered: %+v", d)
	}
}

// TestStatsDeterministicLiteral pins the exact Deterministic() view of
// a result with every field set to a distinct non-zero value: which
// fields survive and which are zeroed.
func TestStatsDeterministicLiteral(t *testing.T) {
	full := StatsResult{
		Devices: 1, Shards: 2, Submitted: 3, Accepted: 4, Rejected: 5,
		Completed: 6, DeadlineMisses: 7, Cancelled: 8, Energy: 9.5,
		Activations: 10, SchedulingTime: 11 * time.Millisecond,
		CacheHits: 12, CacheMisses: 13, CacheStale: 14, CacheEvictions: 15, CacheRepacks: 16,
		CacheSharedHits: 17, CachePromotions: 18, ScheduleSwaps: 19,
		RefineSearches: 20, RefineImproved: 21, RefineSkipped: 22, RefineDropped: 23,
		MaxQueueDepth: 24, CoalescedBatches: 25, CoalescedRequests: 26,
		WatchSubscribers: 27, WatchDropped: 28,
		QuotaBudgetRefusals: 29, QuotaRateRefusals: 30,
		ControlMode: "shedding", Shed: 31, ControlTicks: 32, ControlModeChanges: 33,
	}
	want := StatsResult{
		Devices: 1, Submitted: 3, Accepted: 4, Rejected: 5,
		Completed: 6, DeadlineMisses: 7, Cancelled: 8, Energy: 9.5, Activations: 10,
		CacheHits: 12, CacheMisses: 13, CacheStale: 14, CacheEvictions: 15, CacheRepacks: 16,
		CacheSharedHits: 17, CachePromotions: 18, ScheduleSwaps: 19,
		CoalescedBatches: 25, CoalescedRequests: 26,
	}
	if got := full.Deterministic(); got != want {
		t.Errorf("Deterministic():\n got %+v\nwant %+v", got, want)
	}
}
