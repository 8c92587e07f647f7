// Service: run the fleet as a JSON/HTTP daemon and negotiate admission
// through the typed client — the same adaptrm.Service interface the
// in-process fleet implements, so swapping transports changes one
// constructor call. Demonstrates per-request decisions, typed
// rejections, batched admission (one scheduler activation for a whole
// burst), job cancellation, per-tenant quotas, the stats endpoint, and
// the /v1/watch event stream: every admission, start, completion,
// cancellation and schedule change arrives live over Server-Sent
// Events, in per-device sequence order.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"

	"adaptrm"
)

func main() {
	plat := adaptrm.OdroidXU4()
	lib, err := adaptrm.StandardLibrary(plat)
	if err != nil {
		log.Fatal(err)
	}

	// A two-device fleet, one MMKP-MDF scheduler per device.
	devs := make([]adaptrm.FleetDevice, 2)
	for i := range devs {
		devs[i] = adaptrm.FleetDevice{Platform: plat, Library: lib, Scheduler: adaptrm.NewMMKPMDF()}
	}
	f, err := adaptrm.NewFleet(devs, adaptrm.FleetOptions{Shards: 2, Cache: true})
	if err != nil {
		log.Fatal(err)
	}

	// Expose it over HTTP with one budgeted tenant. Port :0 picks a free
	// port; a real deployment uses cmd/rmserve -listen instead.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	server, err := adaptrm.NewHTTPServer(f.Service(), adaptrm.HTTPServerOptions{
		Tenants: []adaptrm.Tenant{{Name: "demo", Token: "s3cret", MaxRequests: 9}},
	})
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = http.Serve(ln, server) }()
	baseURL := "http://" + ln.Addr().String()
	fmt.Println("daemon listening on", baseURL)

	// The client is itself an adaptrm.Service — everything below would
	// work identically against f.Service() directly.
	client := adaptrm.NewHTTPClient(baseURL, "s3cret", nil)
	var svc adaptrm.Service = client
	ctx := context.Background()

	// Follow the whole fleet live before any traffic flows: the watch is
	// an SSE stream (quota-free, like stats), and svc.Watch works
	// identically against f.Service(). Events are collected here and
	// printed once the fleet has drained.
	events, err := svc.Watch(ctx, adaptrm.WatchRequest{})
	if err != nil {
		log.Fatal(err)
	}
	var story []adaptrm.Event
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		for ev := range events {
			story = append(story, ev)
		}
	}()

	// Negotiate a few admissions on device 0. The tight 6-second
	// deadline of the third request is infeasible next to the others —
	// the daemon says so with a typed, transport-surviving error.
	for _, req := range []adaptrm.SubmitRequest{
		{Device: 0, At: 0, App: "audio-filter/medium", Deadline: 20},
		{Device: 0, At: 1, App: "pedestrian-recognition/medium", Deadline: 30},
		{Device: 0, At: 2, App: "speaker-recognition/large", Deadline: 8},
	} {
		res, err := svc.Submit(ctx, req)
		switch {
		case errors.Is(err, adaptrm.ErrRejected):
			fmt.Printf("t=%.0f: %-30s → rejected (infeasible)\n", req.At, req.App)
		case err != nil:
			log.Fatal(err)
		default:
			fmt.Printf("t=%.0f: %-30s → accepted as job %d\n", req.At, req.App, res.JobID)
		}
	}

	// The user aborts job 1; its resources are reclaimed immediately.
	if _, err := svc.Cancel(ctx, adaptrm.CancelRequest{Device: 0, JobID: 1}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("cancelled job 1 — device re-planned the remaining jobs")

	// Advance the device clock; completions come back to the caller.
	adv, err := svc.Advance(ctx, adaptrm.AdvanceRequest{Device: 0, To: 40})
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range adv.Completions {
		fmt.Printf("t=%.1f: job %d completed (missed=%v)\n", c.At, c.JobID, c.Missed)
	}

	// Batched admission: a burst of three same-time requests for device 1
	// is decided in one call — and, being jointly feasible, one scheduler
	// activation instead of three. Verdicts and job ids are exactly what
	// three sequential submits would have produced; a batch of k costs k
	// units of the tenant budget.
	batch, err := svc.SubmitBatch(ctx, adaptrm.BatchSubmitRequest{
		Device: 1, At: 0, Items: []adaptrm.BatchItem{
			{App: "audio-filter/medium", Deadline: 25},
			{App: "speaker-recognition/medium", Deadline: 40},
			{App: "pedestrian-recognition/small", Deadline: 35},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, v := range batch.Verdicts {
		switch {
		case v.Accepted:
			fmt.Printf("batch[%d] → accepted as job %d\n", i, v.JobID)
		default:
			fmt.Printf("batch[%d] → %s\n", i, v.Error.Code)
		}
	}

	// The tenant's 9-request budget is now nearly spent: 3 submits +
	// 1 cancel + 1 advance + the 3-item batch leave room for exactly one
	// more mutating call.
	if _, err := svc.Submit(ctx, adaptrm.SubmitRequest{Device: 1, At: 0, App: "audio-filter/small", Deadline: 25}); err == nil {
		fmt.Println("device 1: one more admission within budget")
	}
	_, err = svc.Submit(ctx, adaptrm.SubmitRequest{Device: 1, At: 1, App: "audio-filter/small", Deadline: 26})
	if errors.Is(err, adaptrm.ErrQuotaExceeded) {
		fmt.Println("tenant budget spent → quota_exceeded (HTTP 429)")
	}

	// Stats are free and identical to the in-process view.
	st, err := svc.Stats(ctx, adaptrm.StatsRequest{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfleet: %d submitted, %d accepted, %d rejected, %.2f J so far\n",
		st.Submitted, st.Accepted, st.Rejected, st.Energy)

	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	final := f.Stats()
	fmt.Printf("after drain: %d completed, %d deadline misses, %d cancelled, %.2f J total\n",
		final.Completed, final.DeadlineMisses, final.Cancelled, final.Energy)

	// Closing the fleet ended the SSE stream — after its final drain
	// events, so the watcher holds the complete story.
	<-watched
	fmt.Printf("\nwatched %d events over SSE:\n", len(story))
	for _, ev := range story {
		switch ev.Type {
		case adaptrm.EventScheduleChanged:
			fmt.Printf("  dev %d #%-2d t=%5.1f  %s\n", ev.Device, ev.Seq, ev.At, ev.Type)
		case adaptrm.EventJobAdmitted, adaptrm.EventJobRejected:
			fmt.Printf("  dev %d #%-2d t=%5.1f  %-16s job %d  %s (deadline %g)\n",
				ev.Device, ev.Seq, ev.At, ev.Type, ev.JobID, ev.App, ev.Deadline)
		default:
			fmt.Printf("  dev %d #%-2d t=%5.1f  %-16s job %d\n", ev.Device, ev.Seq, ev.At, ev.Type, ev.JobID)
		}
	}
}
