package httpapi_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"adaptrm/internal/api"
	"adaptrm/internal/fleet"
	"adaptrm/internal/httpapi"
)

// vclock is a hand-advanced virtual clock for deterministic
// token-bucket tests.
type vclock struct {
	mu sync.Mutex
	t  time.Time
}

func newVclock() *vclock { return &vclock{t: time.Unix(1000, 0)} }

func (c *vclock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *vclock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// submitCode performs one submit and reduces it to its taxonomy code
// ("" for success; rejections count as executed work, not errors, for
// quota purposes but surface as "infeasible").
func submitCode(t *testing.T, svc api.Service, at float64) string {
	t.Helper()
	_, err := svc.Submit(bg, api.SubmitRequest{Device: 0, At: at, App: "lambda1", Deadline: at + 1000})
	if err == nil {
		return ""
	}
	return api.ErrorCode(err)
}

// TestRateQuotaDeterministic drives a rate-1/s, burst-2 tenant against
// a virtual clock: the admit/reject sequence is exactly the token
// bucket's arithmetic, with no wall-clock dependence.
func TestRateQuotaDeterministic(t *testing.T) {
	f := newFleet(t, 1, fleet.Options{})
	defer f.Close()
	clock := newVclock()
	svc := overHTTP(t, f.Service(), httpapi.ServerOptions{
		Now:     clock.now,
		Tenants: []httpapi.Tenant{{Name: "t", Token: "tok", Rate: 1, Burst: 2}},
	}, "tok")

	at := 0.0
	next := func() float64 { at += 0.001; return at }
	okOrInfeasible := func(code string) bool { return code == "" || code == api.CodeInfeasible }

	// The bucket starts full: exactly Burst operations pass...
	for i := 0; i < 2; i++ {
		if code := submitCode(t, svc, next()); !okOrInfeasible(code) {
			t.Fatalf("burst op %d refused: %s", i, code)
		}
	}
	// ...and the next is refused without the clock moving.
	if code := submitCode(t, svc, next()); code != api.CodeQuotaExceeded {
		t.Fatalf("over-burst op: %q, want quota_exceeded", code)
	}
	// Half a token is not a token.
	clock.advance(500 * time.Millisecond)
	if code := submitCode(t, svc, next()); code != api.CodeQuotaExceeded {
		t.Fatalf("half-refilled op: %q, want quota_exceeded", code)
	}
	// The second half completes one token: exactly one op passes.
	clock.advance(500 * time.Millisecond)
	if code := submitCode(t, svc, next()); !okOrInfeasible(code) {
		t.Fatalf("refilled op refused: %s", code)
	}
	if code := submitCode(t, svc, next()); code != api.CodeQuotaExceeded {
		t.Fatalf("second op on one token: %q, want quota_exceeded", code)
	}
	// A long idle period refills to Burst, never beyond.
	clock.advance(time.Hour)
	for i := 0; i < 2; i++ {
		if code := submitCode(t, svc, next()); !okOrInfeasible(code) {
			t.Fatalf("post-idle op %d refused: %s", i, code)
		}
	}
	if code := submitCode(t, svc, next()); code != api.CodeQuotaExceeded {
		t.Fatalf("burst cap not enforced after idle: %q", code)
	}
}

// TestRateQuotaBatchCost: a k-item batch costs k tokens, refused whole
// when the bucket holds fewer.
func TestRateQuotaBatchCost(t *testing.T) {
	f := newFleet(t, 1, fleet.Options{})
	defer f.Close()
	clock := newVclock()
	svc := overHTTP(t, f.Service(), httpapi.ServerOptions{
		Now:     clock.now,
		Tenants: []httpapi.Tenant{{Name: "t", Token: "tok", Rate: 1, Burst: 3}},
	}, "tok")
	items := []api.BatchItem{{App: "lambda1", Deadline: 1000}, {App: "lambda2", Deadline: 1000}}
	if _, err := svc.SubmitBatch(bg, api.BatchSubmitRequest{Device: 0, At: 0, Items: items}); err != nil {
		t.Fatalf("2-item batch on 3 tokens: %v", err)
	}
	// One token left: a 2-item batch is refused whole, and the single
	// token is still there for a 1-op call afterwards.
	if _, err := svc.SubmitBatch(bg, api.BatchSubmitRequest{Device: 0, At: 1, Items: items}); !errors.Is(err, api.ErrQuotaExceeded) {
		t.Fatalf("2-item batch on 1 token: %v, want ErrQuotaExceeded", err)
	}
	if code := submitCode(t, svc, 2); code != "" && code != api.CodeInfeasible {
		t.Fatalf("remaining token was burned by the refused batch: %s", code)
	}
	// An empty batch needs no tokens even with the bucket dry.
	if res, err := svc.SubmitBatch(bg, api.BatchSubmitRequest{Device: 0, At: 3}); err != nil || len(res.Verdicts) != 0 {
		t.Fatalf("empty batch on dry bucket: res %+v err %v", res, err)
	}
}

// TestRateQuotaRefund: operations that never execute on a device hand
// their token back, exactly like the total budget.
func TestRateQuotaRefund(t *testing.T) {
	f := newFleet(t, 1, fleet.Options{})
	defer f.Close()
	clock := newVclock()
	svc := overHTTP(t, f.Service(), httpapi.ServerOptions{
		Now:     clock.now,
		Tenants: []httpapi.Tenant{{Name: "t", Token: "tok", Rate: 0.001, Burst: 1}},
	}, "tok")
	// Unknown device: refundable — the single token survives any number
	// of attempts.
	for i := 0; i < 3; i++ {
		if _, err := svc.Submit(bg, api.SubmitRequest{Device: 9, At: 0, App: "lambda1", Deadline: 9}); !errors.Is(err, api.ErrUnknownDevice) {
			t.Fatalf("attempt %d: %v, want ErrUnknownDevice", i, err)
		}
	}
	if code := submitCode(t, svc, 0); code != "" && code != api.CodeInfeasible {
		t.Fatalf("token lost to refundable failures: %s", code)
	}
	// Spent for real now; the next op is rate-limited.
	if code := submitCode(t, svc, 1); code != api.CodeQuotaExceeded {
		t.Fatalf("after spending the only token: %q, want quota_exceeded", code)
	}
}

// TestRateQuotaComposesWithBudget: the bucket paces, the budget caps —
// hitting either refuses the call, and a rate refusal does not consume
// budget.
func TestRateQuotaComposesWithBudget(t *testing.T) {
	f := newFleet(t, 1, fleet.Options{})
	defer f.Close()
	clock := newVclock()
	svc := overHTTP(t, f.Service(), httpapi.ServerOptions{
		Now:     clock.now,
		Tenants: []httpapi.Tenant{{Name: "t", Token: "tok", Rate: 1, Burst: 1, MaxRequests: 2}},
	}, "tok")
	if code := submitCode(t, svc, 0); code != "" && code != api.CodeInfeasible {
		t.Fatalf("first op: %s", code)
	}
	// Bucket dry, budget has 1 left: refusal must come from the rate
	// side and must not consume the budget unit.
	if code := submitCode(t, svc, 1); code != api.CodeQuotaExceeded {
		t.Fatalf("paced op: %q, want quota_exceeded", code)
	}
	clock.advance(time.Second)
	if code := submitCode(t, svc, 2); code != "" && code != api.CodeInfeasible {
		t.Fatalf("second budgeted op after refill: %s", code)
	}
	// Budget exhausted: no amount of refill admits a third.
	clock.advance(time.Hour)
	if code := submitCode(t, svc, 3); code != api.CodeQuotaExceeded {
		t.Fatalf("over-budget op: %q, want quota_exceeded", code)
	}
}

// TestRateQuotaValidation: negative quotas are configuration errors,
// and Burst defaults to ceil(Rate) (min 1).
func TestRateQuotaValidation(t *testing.T) {
	f := newFleet(t, 1, fleet.Options{})
	defer f.Close()
	if _, err := httpapi.NewServer(f.Service(), httpapi.ServerOptions{
		Tenants: []httpapi.Tenant{{Name: "t", Token: "tok", Rate: -1}},
	}); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := httpapi.NewServer(f.Service(), httpapi.ServerOptions{
		Tenants: []httpapi.Tenant{{Name: "t", Token: "tok", Burst: -1}},
	}); err == nil {
		t.Error("negative burst accepted")
	}
	// Burst defaulting: rate 0.5 → burst 1; exactly one op passes on a
	// fresh bucket.
	clock := newVclock()
	svc := overHTTP(t, f.Service(), httpapi.ServerOptions{
		Now:     clock.now,
		Tenants: []httpapi.Tenant{{Name: "t", Token: "tok", Rate: 0.5}},
	}, "tok")
	if code := submitCode(t, svc, 0); code != "" && code != api.CodeInfeasible {
		t.Fatalf("first op on defaulted burst: %s", code)
	}
	if code := submitCode(t, svc, 1); code != api.CodeQuotaExceeded {
		t.Fatalf("second op on defaulted burst: %q, want quota_exceeded", code)
	}
}
