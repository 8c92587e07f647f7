package httpapi_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"adaptrm/internal/api"
	"adaptrm/internal/control"
	"adaptrm/internal/durable"
	"adaptrm/internal/fleet"
	"adaptrm/internal/httpapi"
	"adaptrm/internal/motiv"
	"adaptrm/internal/schedcache"
	"adaptrm/internal/workload"
)

// maskedSamples are the families whose sample values depend on the
// wall clock; the golden scrape keeps their lines and labels but not
// their values. Histogram families cover their _bucket, _sum and
// _count samples.
var maskedSamples = []string{
	"adaptrm_scheduler_busy_seconds_total",
	"adaptrm_queue_depth_max",
	"adaptrm_http_request_seconds",
	"adaptrm_wal_fsync_seconds",
}

// scrapeBlocks splits a /metrics body into family blocks — each from
// its # HELP line to the next — with the wall-clock values masked.
func scrapeBlocks(body string) []string {
	var blocks []string
	var cur strings.Builder
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") && cur.Len() > 0 {
			blocks = append(blocks, cur.String())
			cur.Reset()
		}
		if !strings.HasPrefix(line, "#") {
			name := line[:strings.IndexAny(line, "{ ")]
			for _, m := range maskedSamples {
				if name == m || strings.HasPrefix(name, m+"_") {
					line = line[:strings.LastIndexByte(line, ' ')+1] + "<masked>"
				}
			}
		}
		cur.WriteString(line)
		cur.WriteByte('\n')
	}
	if cur.Len() > 0 {
		blocks = append(blocks, cur.String())
	}
	return blocks
}

// checkGolden compares a scrape against testdata/<name>.golden as a set
// of family blocks: families may come in any order, but every block
// must match byte for byte.
func checkGolden(t *testing.T, name, body string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	for _, b := range scrapeBlocks(string(raw)) {
		want[b]++
	}
	got := map[string]int{}
	for _, b := range scrapeBlocks(body) {
		got[b]++
	}
	var missing, extra []string
	for b, n := range want {
		if got[b] < n {
			missing = append(missing, b)
		}
	}
	for b, n := range got {
		if want[b] < n {
			extra = append(extra, b)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	for _, b := range missing {
		t.Errorf("%s: golden family block missing from the scrape:\n%s", name, b)
	}
	for _, b := range extra {
		t.Errorf("%s: scrape family block not in the golden file:\n%s", name, b)
	}
}

// rawScrape fetches /metrics and returns the body.
func rawScrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d: %s", resp.StatusCode, body)
	}
	return string(body)
}

// waitQuiet waits until every shard mailbox has drained (a worker
// decrements its depth just after replying, so a reply can overtake
// the gauge).
func waitQuiet(t *testing.T, f *fleet.Fleet) {
	t.Helper()
	waitFor(t, func() bool {
		for _, d := range f.QueueDepths() {
			if d != 0 {
				return false
			}
		}
		return true
	})
}

// TestMetricsGolden pins the complete /metrics exposition — every
// family name, HELP, TYPE, label set and value — for two fleets with
// the server clock fixed, so any change to how statistics reach the
// scrape shows up as a block diff.
func TestMetricsGolden(t *testing.T) {
	fixed := time.Unix(1_700_000_000, 0)
	now := func() time.Time { return fixed }

	t.Run("cached", func(t *testing.T) {
		// A cached fleet with a shared tier behind three tenants: one
		// unlimited, one that exhausts its request budget and one that
		// empties its rate bucket (the fixed clock never refills it).
		const devices = 3
		f := newFleet(t, devices, fleet.Options{Shards: 2, Cache: true, SharedCache: schedcache.NewShared()})
		defer f.Close()
		ts := httptest.NewServer(mustServer(t, f.Service(), httpapi.ServerOptions{
			Now: now,
			Tenants: []httpapi.Tenant{
				{Name: "ops", Token: "tok-ops"},
				{Name: "capped", Token: "tok-capped", MaxRequests: 1},
				{Name: "paced", Token: "tok-paced", Rate: 1, Burst: 1},
			},
		}))
		defer ts.Close()

		trace, err := workload.FleetTrace(motiv.Library(), workload.FleetTraceParams{
			Devices: devices, Rate: 0.25, RateSpread: 0.5, Horizon: 60, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		ops := httpapi.NewClient(ts.URL, "tok-ops", ts.Client())
		drive(t, ops, trace, devices, 60)
		// The same job set on every device, twice: the first device
		// solves and promotes it, the others hit the shared tier, and
		// the repeat hits each device's own cache.
		for _, at := range []float64{200, 300} {
			for d := 0; d < devices; d++ {
				if _, err := ops.Submit(bg, api.SubmitRequest{Device: d, At: at, App: "lambda2", Deadline: at + 8}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := ops.SubmitBatch(bg, api.BatchSubmitRequest{Device: 0, At: 400, Items: []api.BatchItem{
			{App: "lambda1", Deadline: 409}, {App: "lambda2", Deadline: 408},
		}}); err != nil {
			t.Fatal(err)
		}
		for _, tok := range []string{"tok-capped", "tok-paced"} {
			c := httpapi.NewClient(ts.URL, tok, ts.Client())
			if _, err := c.Advance(bg, api.AdvanceRequest{Device: 2, To: 500}); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Advance(bg, api.AdvanceRequest{Device: 2, To: 501}); !errors.Is(err, api.ErrQuotaExceeded) {
				t.Fatalf("second %s call: %v, want a quota refusal", tok, err)
			}
		}
		waitQuiet(t, f)
		checkGolden(t, "metrics_cached", rawScrape(t, ts.URL))
	})

	t.Run("controlled", func(t *testing.T) {
		// A fleet with a manually ticked controller, refinement stepped
		// explicitly, a caught-up write-ahead log and an open watch.
		const devices = 2
		ctl := control.New(control.Config{HighLatency: 1, EnterTicks: 1})
		f := newFleet(t, devices, fleet.Options{
			Shards: 2, Cache: true, Refine: true, RefineWorkers: -1, Control: ctl,
		})
		st, err := durable.Open(t.TempDir(), durable.Meta{Devices: devices, Scheduler: "mdf", Cache: true})
		if err != nil {
			t.Fatal(err)
		}
		w, err := durable.NewWriter(st, f, durable.Options{Fsync: durable.FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(bg)
		ch, err := f.Service().Watch(ctx, api.WatchRequest{Buffer: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		drained := make(chan struct{})
		go func() {
			for range ch {
			}
			close(drained)
		}()
		defer func() {
			cancel()
			<-drained
			if err := f.Close(); err != nil {
				t.Error(err)
			}
			if err := w.Close(); err != nil {
				t.Error(err)
			}
		}()
		ts := httptest.NewServer(mustServer(t, f.Service(), httpapi.ServerOptions{Now: now, WAL: w}))
		defer ts.Close()
		client := httpapi.NewClient(ts.URL, "", ts.Client())

		trace, err := workload.FleetTrace(motiv.Library(), workload.FleetTraceParams{
			Devices: devices, Rate: 0.25, RateSpread: 0.5, Horizon: 40, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		drive(t, client, trace, devices, 40)
		for f.Refiner().TryStep() {
		}
		// One admission refined while it is still the device's current
		// plan, so its swap lands.
		if _, err := client.Submit(bg, api.SubmitRequest{Device: 0, At: 50, App: "lambda1", Deadline: 59}); err != nil {
			t.Fatal(err)
		}
		for f.Refiner().TryStep() {
		}
		// A synchronous op per device orders the scrape behind the
		// fire-and-forget swap posts of the refinement steps.
		for d := 0; d < devices; d++ {
			if _, err := client.Advance(bg, api.AdvanceRequest{Device: d, To: 50}); err != nil {
				t.Fatal(err)
			}
		}
		// Any observed admission latency clears the 1ns bar: each tick
		// after traffic escalates one tier.
		ctl.Tick(1)
		if _, err := client.Submit(bg, api.SubmitRequest{Device: 0, At: 60, App: "lambda1", Deadline: 69}); err != nil {
			t.Fatal(err)
		}
		ctl.Tick(2)
		if _, err := client.Submit(bg, api.SubmitRequest{Device: 1, At: 60, App: "lambda1", Deadline: 69}); !errors.Is(err, api.ErrOverloaded) {
			t.Fatalf("submit while shedding: %v, want overloaded", err)
		}
		waitQuiet(t, f)
		waitFor(t, func() bool {
			seqs := f.DeviceEventSeqs()
			for d, ds := range w.Status().Devices {
				if ds.LastSeq != seqs[d] {
					return false
				}
			}
			return true
		})
		checkGolden(t, "metrics_controlled", rawScrape(t, ts.URL))
	})
}
