package httpapi_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"adaptrm/internal/api"
	"adaptrm/internal/core"
	"adaptrm/internal/fleet"
	"adaptrm/internal/httpapi"
	"adaptrm/internal/motiv"
	"adaptrm/internal/workload"
)

var bg = context.Background()

// newFleet builds a motivational-platform fleet with one MMKP-MDF
// scheduler per device and registers its teardown.
func newFleet(t *testing.T, devices int, opt fleet.Options) *fleet.Fleet {
	t.Helper()
	devs := make([]fleet.DeviceConfig, devices)
	for i := range devs {
		devs[i] = fleet.DeviceConfig{
			Platform:  motiv.Platform(),
			Library:   motiv.Library(),
			Scheduler: core.New(),
		}
	}
	f, err := fleet.New(devs, opt)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// mustServer builds the HTTP front-end or fails the test.
func mustServer(t *testing.T, svc api.Service, opt httpapi.ServerOptions) *httpapi.Server {
	t.Helper()
	s, err := httpapi.NewServer(svc, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// overHTTP wraps a Service in a live httptest server and returns the
// client view plus the server for teardown.
func overHTTP(t *testing.T, svc api.Service, opt httpapi.ServerOptions, token string) api.Service {
	t.Helper()
	ts := httptest.NewServer(mustServer(t, svc, opt))
	t.Cleanup(ts.Close)
	return httpapi.NewClient(ts.URL, token, ts.Client())
}

// outcome is the observable result of one protocol interaction,
// comparable across implementations.
type outcome struct {
	Kind        string // "submit", "advance", "cancel"
	Accepted    bool
	JobID       int
	Completions int
	ErrCode     string // taxonomy code, "" on success
}

func codeOf(err error) string {
	if err == nil {
		return ""
	}
	return api.ErrorCode(err)
}

// drive replays a deterministic interaction script — a seeded trace
// with interleaved advances, then a submit+cancel epilogue per device —
// against a Service and records every observable result.
func drive(t *testing.T, svc api.Service, trace []workload.FleetRequest, devices int, horizon float64) ([]outcome, api.StatsResult) {
	t.Helper()
	var log []outcome
	for i, r := range trace {
		if i%5 == 4 {
			adv, err := svc.Advance(bg, api.AdvanceRequest{Device: r.Device, To: r.At})
			log = append(log, outcome{Kind: "advance", Completions: len(adv.Completions), ErrCode: codeOf(err)})
		}
		res, err := svc.Submit(bg, api.SubmitRequest{Device: r.Device, At: r.At, App: r.App, Deadline: r.Deadline})
		if err != nil && !errors.Is(err, api.ErrInfeasible) {
			t.Fatalf("entry %d (%+v): %v", i, r, err)
		}
		log = append(log, outcome{
			Kind: "submit", Accepted: res.Accepted, JobID: res.JobID,
			Completions: len(res.Completions), ErrCode: codeOf(err),
		})
	}
	// Epilogue: admit one more job per device past the trace horizon and
	// cancel it again — exercising cancellation on both transports.
	for d := 0; d < devices; d++ {
		at := horizon + 10
		res, err := svc.Submit(bg, api.SubmitRequest{Device: d, At: at, App: "lambda2", Deadline: at + 8})
		log = append(log, outcome{
			Kind: "submit", Accepted: res.Accepted, JobID: res.JobID,
			Completions: len(res.Completions), ErrCode: codeOf(err),
		})
		if err == nil && res.Accepted {
			cr, cerr := svc.Cancel(bg, api.CancelRequest{Device: d, JobID: res.JobID})
			log = append(log, outcome{Kind: "cancel", Accepted: cr.Cancelled, JobID: res.JobID, ErrCode: codeOf(cerr)})
		}
	}
	st, err := svc.Stats(bg, api.StatsRequest{})
	if err != nil {
		t.Fatal(err)
	}
	return log, st
}

// TestInProcessAndHTTPEquivalence is the interchangeability guarantee:
// the same seeded trace driven through the in-process fleet service and
// through the HTTP client against a live daemon must yield the same
// accept/reject sequence, job ids, completion counts, energy and
// deterministic statistics.
func TestInProcessAndHTTPEquivalence(t *testing.T) {
	const devices = 3
	const horizon = 120.0
	trace, err := workload.FleetTrace(motiv.Library(), workload.FleetTraceParams{
		Devices: devices, Rate: 0.25, RateSpread: 0.5, Horizon: horizon, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}

	inproc := newFleet(t, devices, fleet.Options{Shards: 2})
	inLog, inStats := drive(t, inproc.Service(), trace, devices, horizon)
	if err := inproc.Close(); err != nil {
		t.Fatal(err)
	}

	backend := newFleet(t, devices, fleet.Options{Shards: 2})
	client := overHTTP(t, backend.Service(), httpapi.ServerOptions{}, "")
	httpLog, httpStats := drive(t, client, trace, devices, horizon)
	if err := backend.Close(); err != nil {
		t.Fatal(err)
	}

	if len(inLog) != len(httpLog) {
		t.Fatalf("interaction counts differ: %d vs %d", len(inLog), len(httpLog))
	}
	for i := range inLog {
		if inLog[i] != httpLog[i] {
			t.Errorf("interaction %d diverged:\nin-process %+v\nhttp       %+v", i, inLog[i], httpLog[i])
		}
	}
	if in, ht := inStats.Deterministic(), httpStats.Deterministic(); in != ht {
		t.Errorf("stats diverged:\nin-process %+v\nhttp       %+v", in, ht)
	}
	// The run must exercise both verdicts to mean anything.
	if inStats.Accepted == 0 || inStats.Rejected == 0 {
		t.Fatalf("trace too easy or too hard (accepted %d, rejected %d) — tune parameters",
			inStats.Accepted, inStats.Rejected)
	}
}

// errService returns a canned error from the four unary verbs, so the
// status mapping can be tested for taxonomy members the real fleet
// rarely produces. The embedded nil Service stands in for the rest,
// which no test calls.
type errService struct {
	api.Service
	err error
}

func (s errService) Submit(context.Context, api.SubmitRequest) (api.SubmitResult, error) {
	return api.SubmitResult{}, s.err
}
func (s errService) Advance(context.Context, api.AdvanceRequest) (api.AdvanceResult, error) {
	return api.AdvanceResult{}, s.err
}
func (s errService) Cancel(context.Context, api.CancelRequest) (api.CancelResult, error) {
	return api.CancelResult{}, s.err
}
func (s errService) Stats(context.Context, api.StatsRequest) (api.StatsResult, error) {
	return api.StatsResult{}, s.err
}

// TestErrorStatusAndRoundTrip drives every taxonomy error through a
// live server and asserts (i) the HTTP status the wire carries and (ii)
// that the client decodes it back to the same sentinel under errors.Is.
func TestErrorStatusAndRoundTrip(t *testing.T) {
	cases := []struct {
		sentinel *api.Error
		status   int
	}{
		{api.ErrInfeasible, http.StatusUnprocessableEntity},
		{api.ErrUnknownDevice, http.StatusNotFound},
		{api.ErrUnknownApp, http.StatusNotFound},
		{api.ErrUnknownJob, http.StatusNotFound},
		{api.ErrBadRequest, http.StatusBadRequest},
		{api.ErrPayloadTooLarge, http.StatusRequestEntityTooLarge},
		{api.ErrOverloaded, http.StatusServiceUnavailable},
		{api.ErrClosed, http.StatusServiceUnavailable},
		{api.ErrQuotaExceeded, http.StatusTooManyRequests},
		{api.ErrUnauthorized, http.StatusUnauthorized},
		{api.ErrForbidden, http.StatusForbidden},
		{api.ErrUnavailable, http.StatusBadGateway},
		{api.ErrInternal, http.StatusInternalServerError},
	}
	for _, c := range cases {
		t.Run(c.sentinel.Code, func(t *testing.T) {
			wrapped := api.Errf(c.sentinel, "some detail %d", 42)
			ts := httptest.NewServer(mustServer(t, errService{err: wrapped}, httpapi.ServerOptions{}))
			defer ts.Close()

			// Raw status on the wire.
			resp, err := http.Post(ts.URL+"/v1/submit", "application/json",
				bytes.NewReader([]byte(`{"device":0,"at":0,"app":"x","deadline":1}`)))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != c.status {
				t.Errorf("status = %d, want %d", resp.StatusCode, c.status)
			}
			var env struct {
				Error *api.Error `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if env.Error == nil || env.Error.Code != c.sentinel.Code {
				t.Errorf("wire code = %+v, want %q", env.Error, c.sentinel.Code)
			}

			// Sentinel identity through the typed client, on every verb.
			client := httpapi.NewClient(ts.URL, "", ts.Client())
			if _, err := client.Submit(bg, api.SubmitRequest{}); !errors.Is(err, c.sentinel) {
				t.Errorf("submit err = %v, want %v", err, c.sentinel)
			}
			if _, err := client.Advance(bg, api.AdvanceRequest{}); !errors.Is(err, c.sentinel) {
				t.Errorf("advance err = %v, want %v", err, c.sentinel)
			}
			if _, err := client.Cancel(bg, api.CancelRequest{}); !errors.Is(err, c.sentinel) {
				t.Errorf("cancel err = %v, want %v", err, c.sentinel)
			}
			if _, err := client.Stats(bg, api.StatsRequest{}); !errors.Is(err, c.sentinel) {
				t.Errorf("stats err = %v, want %v", err, c.sentinel)
			}
		})
	}
}

// TestRealFleetErrorsOverHTTP checks the end-to-end mapping for errors
// the real backend produces, including the bad-payload 400.
func TestRealFleetErrorsOverHTTP(t *testing.T) {
	f := newFleet(t, 1, fleet.Options{})
	ts := httptest.NewServer(mustServer(t, f.Service(), httpapi.ServerOptions{}))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { _ = f.Close() })
	client := httpapi.NewClient(ts.URL, "", ts.Client())

	if _, err := client.Submit(bg, api.SubmitRequest{Device: 4, At: 0, App: "lambda1", Deadline: 9}); !errors.Is(err, api.ErrUnknownDevice) {
		t.Errorf("unknown device: %v", err)
	}
	if _, err := client.Submit(bg, api.SubmitRequest{Device: 0, At: 0, App: "nope", Deadline: 9}); !errors.Is(err, api.ErrUnknownApp) {
		t.Errorf("unknown app: %v", err)
	}
	if _, err := client.Submit(bg, api.SubmitRequest{Device: 0, At: 5, App: "lambda1", Deadline: 5}); !errors.Is(err, api.ErrBadRequest) {
		t.Errorf("bad deadline: %v", err)
	}
	if _, err := client.Cancel(bg, api.CancelRequest{Device: 0, JobID: 123}); !errors.Is(err, api.ErrUnknownJob) {
		t.Errorf("unknown job: %v", err)
	}

	// Undecodable payload → 400 bad_request.
	resp, err := http.Post(ts.URL+"/v1/submit", "application/json",
		bytes.NewReader([]byte(`{"device": "not a number"`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad payload status = %d, want 400", resp.StatusCode)
	}
	var env struct {
		Error *api.Error `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error == nil || !errors.Is(env.Error, api.ErrBadRequest) {
		t.Errorf("bad payload envelope = %+v, err %v", env.Error, err)
	}

	// A rejected submission still reports its verdict in the envelope.
	if r, err := client.Submit(bg, api.SubmitRequest{Device: 0, At: 0, App: "lambda1", Deadline: 9}); err != nil || !r.Accepted {
		t.Fatalf("first λ1: %+v, %v", r, err)
	}
	r, err := client.Submit(bg, api.SubmitRequest{Device: 0, At: 0, App: "lambda1", Deadline: 9})
	if !errors.Is(err, api.ErrInfeasible) || r.Accepted {
		t.Errorf("second λ1: res %+v err %v, want typed rejection", r, err)
	}

	// Health probe.
	if err := client.Health(bg); err != nil {
		t.Errorf("health: %v", err)
	}
}

// TestTenantAuthAndQuota covers the access-control path: unknown token,
// device restriction, and the request budget running out.
func TestTenantAuthAndQuota(t *testing.T) {
	f := newFleet(t, 2, fleet.Options{})
	t.Cleanup(func() { _ = f.Close() })
	opt := httpapi.ServerOptions{Tenants: []httpapi.Tenant{
		{Name: "dev0-only", Token: "tok-a", Devices: []int{0}},
		{Name: "budgeted", Token: "tok-b", MaxRequests: 2},
	}}
	ts := httptest.NewServer(mustServer(t, f.Service(), opt))
	t.Cleanup(ts.Close)

	anon := httpapi.NewClient(ts.URL, "", ts.Client())
	if _, err := anon.Submit(bg, api.SubmitRequest{Device: 0, At: 0, App: "lambda2", Deadline: 9}); !errors.Is(err, api.ErrUnauthorized) {
		t.Errorf("anonymous submit: %v, want ErrUnauthorized", err)
	}
	wrong := httpapi.NewClient(ts.URL, "nope", ts.Client())
	if _, err := wrong.Stats(bg, api.StatsRequest{}); !errors.Is(err, api.ErrUnauthorized) {
		t.Errorf("wrong token stats: %v, want ErrUnauthorized", err)
	}

	a := httpapi.NewClient(ts.URL, "tok-a", ts.Client())
	if r, err := a.Submit(bg, api.SubmitRequest{Device: 0, At: 0, App: "lambda2", Deadline: 9}); err != nil || !r.Accepted {
		t.Fatalf("tenant a device 0: %+v, %v", r, err)
	}
	if _, err := a.Submit(bg, api.SubmitRequest{Device: 1, At: 0, App: "lambda2", Deadline: 9}); !errors.Is(err, api.ErrForbidden) {
		t.Errorf("tenant a device 1: %v, want ErrForbidden", err)
	}
	// A device-restricted tenant may read its own devices' stats but not
	// fleet-wide aggregates that include devices outside its set.
	dev0 := 0
	if _, err := a.Stats(bg, api.StatsRequest{Device: &dev0}); err != nil {
		t.Errorf("tenant a device-0 stats: %v", err)
	}
	if _, err := a.Stats(bg, api.StatsRequest{}); !errors.Is(err, api.ErrForbidden) {
		t.Errorf("tenant a fleet-wide stats: %v, want ErrForbidden", err)
	}

	b := httpapi.NewClient(ts.URL, "tok-b", ts.Client())
	for i := 0; i < 2; i++ {
		if _, err := b.Advance(bg, api.AdvanceRequest{Device: 1, To: float64(i + 1)}); err != nil {
			t.Fatalf("tenant b advance %d: %v", i, err)
		}
	}
	if _, err := b.Advance(bg, api.AdvanceRequest{Device: 1, To: 9}); !errors.Is(err, api.ErrQuotaExceeded) {
		t.Errorf("tenant b over budget: %v, want ErrQuotaExceeded", err)
	}
	// Stats are free and still served after the budget is gone.
	if _, err := b.Stats(bg, api.StatsRequest{}); err != nil {
		t.Errorf("tenant b stats after quota: %v", err)
	}
}

// TestQuotaRefundsUnexecutedCalls: budget units reserved for operations
// that never reach a device (unknown device here) flow back, so the
// budget counts executed work, not attempts.
func TestQuotaRefundsUnexecutedCalls(t *testing.T) {
	f := newFleet(t, 1, fleet.Options{})
	t.Cleanup(func() { _ = f.Close() })
	opt := httpapi.ServerOptions{Tenants: []httpapi.Tenant{{Name: "tight", Token: "tok", MaxRequests: 1}}}
	ts := httptest.NewServer(mustServer(t, f.Service(), opt))
	t.Cleanup(ts.Close)
	c := httpapi.NewClient(ts.URL, "tok", ts.Client())

	for i := 0; i < 3; i++ {
		if _, err := c.Submit(bg, api.SubmitRequest{Device: 9, At: 0, App: "lambda1", Deadline: 9}); !errors.Is(err, api.ErrUnknownDevice) {
			t.Fatalf("attempt %d: %v, want ErrUnknownDevice", i, err)
		}
	}
	// The whole budget is still available for the one real call...
	if r, err := c.Submit(bg, api.SubmitRequest{Device: 0, At: 0, App: "lambda2", Deadline: 9}); err != nil || !r.Accepted {
		t.Fatalf("real submit after refunds: %+v, %v", r, err)
	}
	// ...and is spent now (an executed, business-level rejection would
	// also have consumed it).
	if _, err := c.Advance(bg, api.AdvanceRequest{Device: 0, To: 1}); !errors.Is(err, api.ErrQuotaExceeded) {
		t.Fatalf("budget not consumed by executed call: %v", err)
	}
}

// TestErrorMessageNotDoubled: the wire trims the sentinel prefix before
// the client-side *Error re-adds it, so messages do not stack
// "api: <code>:" per hop.
func TestErrorMessageNotDoubled(t *testing.T) {
	f := newFleet(t, 1, fleet.Options{})
	t.Cleanup(func() { _ = f.Close() })
	ts := httptest.NewServer(mustServer(t, f.Service(), httpapi.ServerOptions{}))
	t.Cleanup(ts.Close)
	c := httpapi.NewClient(ts.URL, "", ts.Client())

	if _, err := c.Submit(bg, api.SubmitRequest{Device: 0, At: 0, App: "lambda1", Deadline: 9}); err != nil {
		t.Fatal(err)
	}
	_, err := c.Submit(bg, api.SubmitRequest{Device: 0, At: 0, App: "lambda1", Deadline: 9})
	if !errors.Is(err, api.ErrInfeasible) {
		t.Fatalf("want rejection, got %v", err)
	}
	if n := strings.Count(err.Error(), "api: infeasible"); n != 1 {
		t.Errorf("prefix appears %d times in %q", n, err.Error())
	}
}

// TestClientContextCancellation: a cancelled context aborts the HTTP
// round-trip and surfaces context.Canceled.
func TestClientContextCancellation(t *testing.T) {
	f := newFleet(t, 1, fleet.Options{})
	t.Cleanup(func() { _ = f.Close() })
	ts := httptest.NewServer(mustServer(t, f.Service(), httpapi.ServerOptions{}))
	t.Cleanup(ts.Close)
	client := httpapi.NewClient(ts.URL, "", ts.Client())

	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, err := client.Submit(ctx, api.SubmitRequest{Device: 0, At: 0, App: "lambda1", Deadline: 9}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled submit: %v, want context.Canceled", err)
	}
}

// TestConcurrentClientsRace is the -race workhorse for the HTTP path:
// several goroutines drive disjoint devices through one shared client
// against a live server, and the deterministic aggregates must match a
// sequential in-process replay of the same trace.
func TestConcurrentClientsRace(t *testing.T) {
	const devices = 4
	trace, err := workload.FleetTrace(motiv.Library(), workload.FleetTraceParams{
		Devices: devices, Rate: 0.15, RateSpread: 0.4, Horizon: 60, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	streams, err := workload.SplitByDevice(trace, devices)
	if err != nil {
		t.Fatal(err)
	}

	ref := newFleet(t, devices, fleet.Options{Shards: 2})
	if err := ref.Replay(trace); err != nil {
		t.Fatal(err)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	backend := newFleet(t, devices, fleet.Options{Shards: 2})
	ts := httptest.NewServer(mustServer(t, backend.Service(), httpapi.ServerOptions{}))
	t.Cleanup(ts.Close)
	client := httpapi.NewClient(ts.URL, "", ts.Client())

	var wg sync.WaitGroup
	errCh := make(chan error, devices)
	for d := 0; d < devices; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for _, r := range streams[d] {
				_, err := client.Submit(bg, api.SubmitRequest{Device: r.Device, At: r.At, App: r.App, Deadline: r.Deadline})
				if err != nil && !errors.Is(err, api.ErrInfeasible) {
					errCh <- fmt.Errorf("device %d: %w", d, err)
					return
				}
			}
		}(d)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// Drain the backend first, then read the final figures over HTTP —
	// stats stay served after close.
	if err := backend.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := client.Stats(bg, api.StatsRequest{})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Stats()
	if st.Submitted != want.Submitted || st.Accepted != want.Accepted || st.Rejected != want.Rejected || st.Energy != want.Energy {
		t.Errorf("concurrent HTTP run diverged: got %+v, want %+v", st, want)
	}
}

// TestReadTenantsJSON covers the daemon's tenant-file parser.
func TestReadTenantsJSON(t *testing.T) {
	good := []byte(`[{"name":"a","token":"t1","devices":[0,1],"max_requests":10},{"name":"b","token":"t2"}]`)
	ts, err := httpapi.ReadTenantsJSON(good)
	if err != nil || len(ts) != 2 || ts[0].MaxRequests != 10 {
		t.Fatalf("good list: %+v, %v", ts, err)
	}
	for _, bad := range []string{
		`[]`,
		`[{"name":"a"}]`,
		`[{"name":"a","token":"t"},{"name":"b","token":"t"}]`,
		`{"name":"a"}`,
	} {
		if _, err := httpapi.ReadTenantsJSON([]byte(bad)); err == nil {
			t.Errorf("accepted bad tenants %s", bad)
		}
	}
}
