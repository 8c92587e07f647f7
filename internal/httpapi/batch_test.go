package httpapi_test

import (
	"errors"
	"reflect"
	"testing"

	"adaptrm/internal/api"
	"adaptrm/internal/fleet"
	"adaptrm/internal/httpapi"
)

// batchScript is the shared interaction replayed on every transport:
// feasible bursts, an over-subscribed burst (fallback), invalid items.
var batchScript = []api.BatchSubmitRequest{
	{Device: 0, At: 0, Items: []api.BatchItem{
		{App: "lambda1", Deadline: 9}, {App: "lambda2", Deadline: 9},
	}},
	{Device: 0, At: 12, Items: []api.BatchItem{
		{App: "lambda1", Deadline: 21}, {App: "lambda2", Deadline: 21},
		{App: "lambda2", Deadline: 21}, {App: "lambda2", Deadline: 21},
	}},
	{Device: 1, At: 0, Items: []api.BatchItem{
		{App: "nope", Deadline: 9}, {App: "lambda2", Deadline: -1}, {App: "lambda1", Deadline: 9},
	}},
}

// driveBatches replays the script and flattens every observable
// outcome (verdict fields and error codes) for comparison.
func driveBatches(t *testing.T, svc api.Service) ([]string, []api.BatchVerdict) {
	t.Helper()
	var codes []string
	var verdicts []api.BatchVerdict
	for i, req := range batchScript {
		res, err := svc.SubmitBatch(bg, req)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if len(res.Verdicts) != len(req.Items) {
			t.Fatalf("batch %d: %d verdicts for %d items", i, len(res.Verdicts), len(req.Items))
		}
		for _, v := range res.Verdicts {
			if v.Error != nil {
				codes = append(codes, v.Error.Code)
				// Compare by code: the human-readable message is free
				// text.
				v.Error = &api.Error{Code: v.Error.Code}
			} else {
				codes = append(codes, "")
			}
			verdicts = append(verdicts, v)
		}
	}
	return codes, verdicts
}

// TestSubmitBatchTransportEquivalence holds the in-process batch
// service and the HTTP round-trip to identical verdicts, job ids,
// per-item taxonomy codes and deterministic statistics.
func TestSubmitBatchTransportEquivalence(t *testing.T) {
	local := newFleet(t, 2, fleet.Options{Shards: 2})
	remote := newFleet(t, 2, fleet.Options{Shards: 2})
	lc, lv := driveBatches(t, local.Service())
	rc, rv := driveBatches(t, overHTTP(t, remote.Service(), httpapi.ServerOptions{}, ""))
	if !reflect.DeepEqual(lc, rc) {
		t.Errorf("per-item codes diverged:\nlocal %v\nhttp  %v", lc, rc)
	}
	if !reflect.DeepEqual(lv, rv) {
		t.Errorf("verdicts diverged:\nlocal %+v\nhttp  %+v", lv, rv)
	}
	ls, err := local.Service().Stats(bg, api.StatsRequest{})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := remote.Service().Stats(bg, api.StatsRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if ls.Deterministic() != rs.Deterministic() {
		t.Errorf("stats diverged:\nlocal %+v\nhttp  %+v", ls.Deterministic(), rs.Deterministic())
	}
	if err := local.Close(); err != nil {
		t.Fatal(err)
	}
	if err := remote.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitBatchPerItemErrorsSurvived: per-item errors round-trip the
// wire with errors.Is intact, and a clean rejection is CodeInfeasible.
func TestSubmitBatchPerItemErrors(t *testing.T) {
	f := newFleet(t, 1, fleet.Options{})
	defer f.Close()
	svc := overHTTP(t, f.Service(), httpapi.ServerOptions{}, "")
	res, err := svc.SubmitBatch(bg, api.BatchSubmitRequest{Device: 0, At: 0, Items: []api.BatchItem{
		{App: "lambda1", Deadline: 9},
		{App: "ghost", Deadline: 9},
		{App: "lambda2", Deadline: 0},
		{App: "lambda2", Deadline: 9},
		{App: "lambda2", Deadline: 9},
		{App: "lambda2", Deadline: 9},
	}})
	if err != nil {
		t.Fatal(err)
	}
	v := res.Verdicts
	if !v[0].Accepted || v[0].JobID != 1 {
		t.Errorf("first item: %+v", v[0])
	}
	if !errors.Is(v[1].Error, api.ErrUnknownApp) {
		t.Errorf("unknown app: %+v", v[1])
	}
	if !errors.Is(v[2].Error, api.ErrBadRequest) {
		t.Errorf("bad deadline: %+v", v[2])
	}
	rejected := 0
	for _, x := range v[3:] {
		if x.Error != nil && errors.Is(x.Error, api.ErrInfeasible) {
			rejected++
		}
	}
	if rejected == 0 {
		t.Errorf("over-subscribed tail produced no infeasible verdicts: %+v", v[3:])
	}
	// The empty batch is a 200 with an empty result on the wire — a
	// no-op, not an error envelope.
	if res, err := svc.SubmitBatch(bg, api.BatchSubmitRequest{Device: 0, At: 1}); err != nil || len(res.Verdicts) != 0 || len(res.Completions) != 0 {
		t.Errorf("empty batch: res %+v err %v, want empty result and nil error", res, err)
	}
	// Unknown devices stay call-level.
	if _, err := svc.SubmitBatch(bg, api.BatchSubmitRequest{Device: 7, At: 1, Items: []api.BatchItem{{App: "lambda1", Deadline: 9}}}); !errors.Is(err, api.ErrUnknownDevice) {
		t.Errorf("unknown device: %v", err)
	}
}

// TestSubmitBatchQuota: a k-item batch spends k units of the tenant
// budget, and an over-budget batch is refused atomically (no partial
// reservation, nothing executed).
func TestSubmitBatchQuota(t *testing.T) {
	f := newFleet(t, 1, fleet.Options{})
	defer f.Close()
	svc := overHTTP(t, f.Service(), httpapi.ServerOptions{
		Tenants: []httpapi.Tenant{{Name: "t", Token: "tok", MaxRequests: 3}},
	}, "tok")
	if _, err := svc.SubmitBatch(bg, api.BatchSubmitRequest{Device: 0, At: 0, Items: []api.BatchItem{
		{App: "lambda1", Deadline: 30}, {App: "lambda2", Deadline: 30},
	}}); err != nil {
		t.Fatal(err)
	}
	// 1 unit left: a 2-item batch must be refused whole...
	if _, err := svc.SubmitBatch(bg, api.BatchSubmitRequest{Device: 0, At: 1, Items: []api.BatchItem{
		{App: "lambda2", Deadline: 40}, {App: "lambda2", Deadline: 40},
	}}); !errors.Is(err, api.ErrQuotaExceeded) {
		t.Fatalf("over-budget batch: %v", err)
	}
	// ...without burning the remaining unit.
	if _, err := svc.Submit(bg, api.SubmitRequest{Device: 0, At: 2, App: "lambda2", Deadline: 40}); err != nil && !errors.Is(err, api.ErrInfeasible) {
		t.Fatalf("last unit was burned by the refused batch: %v", err)
	}
	st, err := svc.Stats(bg, api.StatsRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Submitted != 3 {
		t.Errorf("submitted = %d, want 3 (2 batch + 1 single)", st.Submitted)
	}
	// The whole budget is spent — an empty batch must still pass: zero
	// items charge zero units (not one), and the reply is an empty
	// result, not a quota error.
	if res, err := svc.SubmitBatch(bg, api.BatchSubmitRequest{Device: 0, At: 3}); err != nil || len(res.Verdicts) != 0 {
		t.Errorf("empty batch on spent budget: res %+v err %v, want empty result and nil error", res, err)
	}
}

// TestSubmitBatchRefundsWholeBatch: a batch fails whole, so a k-item
// batch refused with a refundable error — an unknown device, or a
// closed fleet — hands all k units back to both the total budget and
// the rate bucket. The tenant holds exactly k of each on a frozen
// clock, so a single leaked unit turns the next attempt into a quota
// refusal.
func TestSubmitBatchRefundsWholeBatch(t *testing.T) {
	items := []api.BatchItem{
		{App: "lambda1", Deadline: 30}, {App: "lambda2", Deadline: 30}, {App: "lambda2", Deadline: 35},
	}
	for _, c := range []struct {
		name   string
		device int
		closed bool
		want   *api.Error
	}{
		{"unknown device", 7, false, api.ErrUnknownDevice},
		{"closed fleet", 0, true, api.ErrClosed},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := newFleet(t, 1, fleet.Options{})
			if c.closed {
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
			} else {
				defer f.Close()
			}
			svc := overHTTP(t, f.Service(), httpapi.ServerOptions{
				Now: newVclock().now,
				Tenants: []httpapi.Tenant{{
					Name: "t", Token: "tok", MaxRequests: len(items), Rate: 1, Burst: len(items),
				}},
			}, "tok")
			for i := 0; i < 3; i++ {
				res, err := svc.SubmitBatch(bg, api.BatchSubmitRequest{Device: c.device, At: 0, Items: items})
				if !errors.Is(err, c.want) {
					t.Fatalf("attempt %d: %v, want %v (a unit leaked?)", i, err, c.want)
				}
				if len(res.Verdicts) != 0 {
					t.Fatalf("attempt %d: failed batch carries verdicts %+v", i, res.Verdicts)
				}
			}
			if c.closed {
				return
			}
			// The full allowance is still there, and it is really charged:
			// the batch spends all of it and the next call is refused.
			if _, err := svc.SubmitBatch(bg, api.BatchSubmitRequest{Device: 0, At: 0, Items: items}); err != nil {
				t.Fatalf("batch on the refunded allowance: %v", err)
			}
			if _, err := svc.Submit(bg, api.SubmitRequest{Device: 0, At: 1, App: "lambda1", Deadline: 40}); !errors.Is(err, api.ErrQuotaExceeded) {
				t.Fatalf("call past the allowance: %v, want ErrQuotaExceeded", err)
			}
		})
	}
}
