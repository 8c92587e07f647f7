package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"adaptrm/internal/api"
	"adaptrm/internal/dse"
	"adaptrm/internal/durable"
	"adaptrm/internal/fleet"
	"adaptrm/internal/metrics"
	"adaptrm/internal/opset"
	"adaptrm/internal/platform"
)

// fleet-durable: two closed-loop callers on disjoint device sets drive a
// fleet.Service in process, with a durable.Writer tailing the fleet into
// a write-ahead log. Each round ends by waiting for the log to catch up,
// closing, and recovering a second fleet from the log directory.
const (
	fdDevices = 8
	fdShards  = 2
	fdCallers = 2
	// Per device: single requests at fdRate and bursts of fdBurstSize
	// coincident requests at fdBurstRate over fdHorizon virtual seconds.
	// At these rates a device holds 2–4 concurrent jobs.
	fdRate      = 0.05
	fdBurstRate = 0.0125
	fdBurstSize = 3
	fdHorizon   = 75000.0
)

// fdRound is what one fleet-durable round measured.
type fdRound struct {
	fleetRound
	setups      []float64 // seconds; the round's own set-up first
	library     time.Duration
	run, lastOp time.Duration
	recovery    float64 // seconds
	lat         []float64
	wal         durable.Status
	walBytes    int64
	snapBytes   int64
	events      uint64
	lagMax      uint64
	mem0, mem1  memSample
	spans       []span
}

func runFleetDurable(cfg config) (*result, error) {
	plat := platform.OdroidXU4()
	lib, err := dse.StandardLibrary(plat)
	if err != nil {
		return nil, err
	}
	arr, err := genArrivals(lib, traceSpec{
		devices: fdDevices, rate: fdRate, burstRate: fdBurstRate, burstSize: fdBurstSize,
		horizon: fdHorizon * cfg.scale, seed: cfg.seed,
	})
	if err != nil {
		return nil, err
	}
	work := splitCallers(arr, fdCallers)
	res := &result{values: map[string]float64{}}
	plain, traced, err := measure(cfg,
		func(i int, rec *recorder) (*fdRound, error) { return fleetDurableRound(cfg, plat, work, i, rec) },
		func(i int, r *fdRound) error { return settle(res, plat, lib, i, &r.fleetRound) })
	if err != nil {
		return nil, err
	}
	var setups, rates, recov, allocs []float64
	var lat [][]float64
	for _, r := range plain {
		setups = append(setups, r.setups...)
		rates = append(rates, float64(r.tally.calls)/r.run.Seconds())
		recov = append(recov, r.recovery)
		allocs = append(allocs, float64(r.mem1.mallocs-r.mem0.mallocs)/float64(r.tally.calls))
		lat = append(lat, r.lat)
	}
	p50, p99, ok := latencyOf(lat)
	res.check(ok, "too few latency samples for a p99")
	res.values["setup_s"] = median(setups)
	res.values["ops_per_s"] = median(rates)
	res.values["latency_p50_us"] = p50
	res.values["latency_p99_us"] = p99
	res.values["recovery_s"] = median(recov)
	res.values["allocs_per_op"] = median(allocs)
	res.values["peak_rss_mb"] = peakRSSMiB()
	if cfg.trace {
		fleetDurableLayers(res, traced, p50)
	}
	return res, nil
}

// fleetDurableLayers computes the per-layer metrics from the traced
// rounds; untracedP50 is the untraced rounds' latency median.
func fleetDurableLayers(res *result, traced []*fdRound, untracedP50 float64) {
	v := res.values
	var lat [][]float64
	var service, solve, lib, catchup, appendRate, lagMax, fsync, bytesPerEvent, snapBytes, recRate, gc []float64
	var selfPerOp, share, maxDepth, batchShare, dropped, rescues, selfErr []float64
	for _, r := range traced {
		lat = append(lat, r.lat)
		roots := ofLayer(r.spans, layerLoadgen)
		svc := ofLayer(r.spans, layerService)
		cores := ofLayer(r.spans, layerCore)
		selfs := breakdown([][]span{roots, svc, cores})
		service = append(service, durations(arrivalSpans(svc))...)
		solve = append(solve, durations(cores)...)
		selfPerOp = append(selfPerOp, float64(totalDur(svc)-totalDur(cores))/1e3/float64(len(svc)))
		share = append(share, ratio(float64(totalDur(cores)), float64(totalDur(svc))))
		selfErr = append(selfErr, selfSumError(roots, selfs))
		lib = append(lib, r.library.Seconds())
		catchup = append(catchup, (r.run - r.lastOp).Seconds())
		appendRate = append(appendRate, float64(r.wal.Appended)/r.run.Seconds())
		lagMax = append(lagMax, float64(r.lagMax))
		fsync = append(fsync, histQuantile(r.wal.FsyncLatency, 0.99)/1e3)
		bytesPerEvent = append(bytesPerEvent, ratio(float64(r.walBytes), float64(r.wal.Appended)))
		snapBytes = append(snapBytes, float64(r.snapBytes))
		recRate = append(recRate, float64(r.events)/r.recovery)
		gc = append(gc, float64(r.mem1.numGC-r.mem0.numGC))
		maxDepth = append(maxDepth, float64(r.stats.MaxQueueDepth))
		batchShare = append(batchShare, ratio(float64(r.stats.CoalescedRequests), float64(r.stats.Submitted)))
		dropped = append(dropped, float64(r.stats.WatchDropped))
		rescues = append(rescues, float64(r.wal.Rescues))
	}
	service, solve = sortedCopy(service), sortedCopy(solve)
	tracedP50, _, _ := latencyOf(lat)
	v["loadgen.trace_overhead_pct"] = 100 * (tracedP50 - untracedP50) / untracedP50
	v["loadgen.selfsum_err_pct"] = median(selfErr)
	res.check(median(selfErr) <= selfSumTolerance, "layer self times of a median operation miss its latency by %.1f%%", median(selfErr))
	v["fleet.service_p50_us"] = percentile(service, 50)
	v["fleet.service_p99_us"] = percentile(service, 99)
	v["fleet.self_us_per_op"] = median(selfPerOp)
	v["fleet.max_queue_depth"] = median(maxDepth)
	v["fleet.batch_share"] = median(batchShare)
	v["fleet.watch_dropped"] = median(dropped)
	v["core.solve_p50_us"] = percentile(solve, 50)
	v["core.solve_p99_us"] = percentile(solve, 99)
	v["core.solve_share"] = median(share)
	v["durable.appends_per_s"] = median(appendRate)
	v["durable.catchup_s"] = median(catchup)
	v["durable.wal_lag_max_events"] = median(lagMax)
	v["durable.fsync_p99_us"] = median(fsync)
	v["durable.bytes_per_event"] = median(bytesPerEvent)
	v["durable.snapshot_bytes"] = median(snapBytes)
	v["durable.recovery_events_per_s"] = median(recRate)
	v["durable.rescues"] = median(rescues)
	v["dse.library_s"] = median(lib)
	v["process.gc_cycles"] = median(gc)
	v["process.heap_peak_mb"] = heapPeakMiB()
	if len(traced) > 0 {
		rmLayer(v, traced[0].stats)
	}
}

// fdSystem is one fleet-durable deployment: a fleet and the writer
// tailing it into a log directory.
type fdSystem struct {
	f       *fleet.Fleet
	w       *durable.Writer
	lib     *opset.Library
	library time.Duration // building lib
}

var (
	fdOptions = fleet.Options{Shards: fdShards, Cache: true}
	fdMeta    = durable.Meta{Devices: fdDevices, Scheduler: "mdf", Cache: true}
)

// openFleetDurable builds the library, the fleet and its log writer
// over dir.
func openFleetDurable(plat platform.Platform, dir string, rec *recorder) (*fdSystem, error) {
	t := time.Now()
	lib, err := dse.StandardLibrary(plat)
	if err != nil {
		return nil, err
	}
	s := &fdSystem{lib: lib, library: time.Since(t)}
	if s.f, err = fleet.New(newFleetDevices(plat, lib, fdDevices, rec), fdOptions); err != nil {
		return nil, err
	}
	st, err := durable.Open(dir, fdMeta)
	if err == nil {
		s.w, err = durable.NewWriter(st, s.f, durable.Options{Fsync: durable.FsyncIntervalPolicy})
	}
	if err != nil {
		s.f.Close()
		return nil, err
	}
	return s, nil
}

// close closes the fleet, whose drain the writer still persists, then
// the writer.
func (s *fdSystem) close() error {
	err := s.f.Close()
	return errors.Join(err, s.w.Close())
}

// fleetDurableRound builds the fleet and its log writer, runs the trace,
// waits for the log to catch up, checks the ledger, closes, and times a
// recovery from the log directory.
func fleetDurableRound(cfg config, plat platform.Platform, work [][]arrival, round int, rec *recorder) (*fdRound, error) {
	dir := filepath.Join(cfg.scratch, fmt.Sprintf("fleet-durable-%d-%d", os.Getpid(), round))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &fdRound{}
	var sys *fdSystem
	setup, err := timed(func() (err error) {
		sys, err = openFleetDurable(plat, dir, rec)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.setups = append(r.setups, setup)
	r.library = sys.library
	err = r.drive(sys, work, rec)
	if cerr := sys.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if r.final, err = sys.f.Service().Stats(ctx, api.StatsRequest{}); err != nil {
		return nil, err
	}
	r.check(r.final.Accepted == r.final.Completed+r.final.Cancelled,
		"after the drain: accepted %d != completed %d + cancelled %d", r.final.Accepted, r.final.Completed, r.final.Cancelled)
	r.check(r.final.DeadlineMisses == 0, "%d deadline misses", r.final.DeadlineMisses)
	if r.walBytes, r.snapBytes, err = dataBytes(dir); err != nil {
		return nil, err
	}

	// Recovery: open the log directory and rebuild a fleet from it.
	var f *fleet.Fleet
	r.recovery, err = timed(func() error {
		st, err := durable.Open(dir, fdMeta)
		if err != nil {
			return err
		}
		recs := make(map[int]fleet.DeviceRecovery, len(st.Devices))
		for d, ds := range st.Devices {
			recs[d] = fleet.DeviceRecovery{Snapshot: ds.Snapshot, Events: ds.Events}
		}
		f, _, err = fleet.Recover(newFleetDevices(plat, sys.lib, fdDevices, nil), fdOptions, recs)
		return err
	})
	if err != nil {
		return nil, err
	}
	got, err := f.Service().Stats(ctx, api.StatsRequest{})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	r.check(ledgerOf(got) == ledgerOf(r.final), "recovered stats %+v differ from the closed fleet's %+v", ledgerOf(got), ledgerOf(r.final))

	// More set-ups, each closed again at once, for a steadier setup_s.
	for k := 0; k < extraSetups; k++ {
		d := fmt.Sprintf("%s-setup%d", dir, k)
		var s *fdSystem
		setup, err := timed(func() (err error) {
			s, err = openFleetDurable(plat, d, nil)
			return err
		})
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, setup)
		err = s.close()
		if rerr := os.RemoveAll(d); err == nil {
			err = rerr
		}
		if err != nil {
			return nil, err
		}
	}
	return r, nil
}

// drive runs the callers, waits for the log to catch up, and checks the
// live fleet: the ledger closes over the active jobs counted from the
// device snapshots.
func (r *fdRound) drive(sys *fdSystem, work [][]arrival, rec *recorder) error {
	ctx := context.Background()
	svc, err := traceService(sys.f.Service(), rec, layerService)
	if err != nil {
		return err
	}
	callers := make([]*caller, fdCallers)
	for i := range callers {
		callers[i] = newCaller(svc.(api.BatchService), rec)
	}
	seqsOf := svc.(fleetExtras).DeviceEventSeqs

	r.mem0 = readMem()
	start := time.Now()
	stopSampler := func() uint64 { return 0 }
	if rec != nil {
		stopSampler = sampleLag(sys.w, seqsOf)
	}
	closedLoop(ctx, callers, work)
	r.lastOp = time.Since(start)
	err = waitCaughtUp(sys.w, seqsOf(), 60*time.Second)
	r.run = time.Since(start)
	r.mem1 = readMem()
	r.lagMax = stopSampler()
	if err != nil {
		return err
	}
	if rec != nil {
		r.spans = rec.take()
	}
	r.tally, r.outcome, r.lat = merge(callers)

	if r.stats, err = sys.f.Service().Stats(ctx, api.StatsRequest{}); err != nil {
		return err
	}
	active := 0
	for d := 0; d < fdDevices; d++ {
		s, err := sys.f.DeviceSnapshot(d)
		if err != nil {
			return err
		}
		active += len(s.Active)
		r.snaps = append(r.snaps, s)
	}
	r.wal = sys.w.Status()
	r.events = sum(seqsOf())
	checkLedger(r.check, r.tally, r.stats, active)
	r.check(r.stats.WatchDropped == 0, "watch stream dropped %d events", r.stats.WatchDropped)
	r.check(r.wal.Rescues == 0, "WAL writer needed %d lag rescues", r.wal.Rescues)
	r.check(r.tally.failed == 0, "%d calls failed", r.tally.failed)
	return nil
}

// waitCaughtUp polls the writer until every device's last appended
// sequence number reaches seqs.
func waitCaughtUp(w *durable.Writer, seqs []uint64, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		st := w.Status()
		if st.Err != "" {
			return errors.New("durable writer: " + st.Err)
		}
		done := true
		for d, s := range seqs {
			if st.Devices[d].LastSeq < s {
				done = false
				break
			}
		}
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("WAL did not catch up within %v", limit)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// sampleLag samples the largest per-device gap between the fleet's
// event sequence and the writer's position every millisecond until the
// returned function is called; that function returns the largest gap.
func sampleLag(w *durable.Writer, seqsOf func() []uint64) func() uint64 {
	stop := make(chan struct{})
	done := make(chan uint64)
	go func() {
		var worst uint64
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				done <- worst
				return
			case <-tick.C:
				seqs := seqsOf()
				st := w.Status()
				for d, s := range seqs {
					if s > st.Devices[d].LastSeq && s-st.Devices[d].LastSeq > worst {
						worst = s - st.Devices[d].LastSeq
					}
				}
			}
		}
	}()
	return func() uint64 {
		close(stop)
		return <-done
	}
}

// dataBytes sums the sizes of the log segments and of the snapshots
// under dir.
func dataBytes(dir string) (wal, snaps int64, err error) {
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		switch {
		case strings.HasPrefix(d.Name(), "wal-"):
			wal += info.Size()
		case strings.HasPrefix(d.Name(), "snap-"):
			snaps += info.Size()
		}
		return nil
	})
	return wal, snaps, err
}

// histQuantile returns the upper bound of the bucket holding quantile q
// of a histogram snapshot.
func histQuantile(h metrics.HistSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	want := uint64(q * float64(h.Count))
	for i, c := range h.Cumulative {
		if c >= want && i < len(h.Bounds) {
			return float64(h.Bounds[i])
		}
	}
	return float64(h.Bounds[len(h.Bounds)-1])
}

func sum(vs []uint64) uint64 {
	var t uint64
	for _, v := range vs {
		t += v
	}
	return t
}
