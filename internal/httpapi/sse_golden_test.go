package httpapi_test

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"adaptrm/internal/api"
	"adaptrm/internal/control"
	"adaptrm/internal/fleet"
	"adaptrm/internal/httpapi"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// runSSEGoldenScript drives device 0 of f through every manager event
// kind: a joint batch admission, a refinement swap, a rejection, clock
// advances with starts and completions, a cancellation and a
// controller-driven mode change.
func runSSEGoldenScript(t *testing.T, f *fleet.Fleet, ctl *control.Controller) {
	t.Helper()
	svc := f.Service()
	br, err := svc.SubmitBatch(bg, api.BatchSubmitRequest{Device: 0, At: 0, Items: []api.BatchItem{
		{App: "lambda1", Deadline: 9}, {App: "lambda2", Deadline: 8},
	}})
	if err != nil || len(br.Verdicts) != 2 || !br.Verdicts[0].Accepted || !br.Verdicts[1].Accepted {
		t.Fatalf("batch: %+v err=%v", br, err)
	}
	for f.Refiner().TryStep() {
	}
	// A synchronous op orders the script behind the swap post.
	if _, err := svc.Advance(bg, api.AdvanceRequest{Device: 0, To: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(bg, api.SubmitRequest{Device: 0, At: 1, App: "lambda2", Deadline: 2.5}); !errors.Is(err, api.ErrInfeasible) {
		t.Fatalf("submit at 1: %v, want a rejection", err)
	}
	if _, err := svc.Advance(bg, api.AdvanceRequest{Device: 0, To: 2}); err != nil {
		t.Fatal(err)
	}
	sr, err := svc.Submit(bg, api.SubmitRequest{Device: 0, At: 2, App: "lambda2", Deadline: 14})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Cancel(bg, api.CancelRequest{Device: 0, JobID: sr.JobID}); err != nil {
		t.Fatal(err)
	}
	// Any observed admission latency clears the 1ns bar.
	ctl.Tick(1)
	if ctl.Mode() != control.ModeHeuristicOnly {
		t.Fatalf("controller mode = %v, want heuristic_only", ctl.Mode())
	}
	if _, err := svc.Advance(bg, api.AdvanceRequest{Device: 0, To: 30}); err != nil {
		t.Fatal(err)
	}
}

// sseFrames drops the comment-only messages (stream-open marker,
// heartbeats) from a raw SSE body, keeping every event frame verbatim.
func sseFrames(body []byte) []byte {
	var out []byte
	for _, msg := range bytes.SplitAfter(body, []byte("\n\n")) {
		if len(msg) == 0 || msg[0] == ':' {
			continue
		}
		out = append(out, msg...)
	}
	return out
}

// TestWatchSSEGolden pins the exact id:/event:/data: frames /v1/watch
// serves for a scripted device, from the first event to the end of the
// stream at fleet shutdown.
func TestWatchSSEGolden(t *testing.T) {
	ctl := control.New(control.Config{HighLatency: 1, EnterTicks: 1})
	f := newFleet(t, 1, fleet.Options{Refine: true, RefineWorkers: -1, Control: ctl})
	ts := httptest.NewServer(mustServer(t, f.Service(), httpapi.ServerOptions{}))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/watch?device=0&buffer=4096")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/watch: %d", resp.StatusCode)
	}
	runSSEGoldenScript(t, f, ctl)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	got := sseFrames(body)
	path := filepath.Join("testdata", "watch_sse.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("SSE frames differ from the golden file:\n got %s\nwant %s", got, want)
	}
}
