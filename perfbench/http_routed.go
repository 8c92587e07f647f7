package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"adaptrm/internal/api"
	"adaptrm/internal/dse"
	"adaptrm/internal/fleet"
	"adaptrm/internal/httpapi"
	"adaptrm/internal/opset"
	"adaptrm/internal/placement"
	"adaptrm/internal/platform"
	"adaptrm/internal/router"
)

// http-routed: the deployed path. A client calls an httpapi edge server
// over a router.Router, which calls two httpapi nodes, each serving its
// own fleet; every hop is loopback TCP. An open-loop phase at a fixed
// rate measures latency, then a closed-loop phase measures capacity.
const (
	hrDevices = 16
	hrNodes   = 2
	hrShards  = 2
	hrCallers = 2
	// hrConns caps the connections per HTTP hop, one per caller.
	hrConns = hrCallers
	// hrRate is the per-device request rate over hrHorizon virtual
	// seconds; a device holds 0–2 concurrent jobs.
	hrRate    = 0.02
	hrHorizon = 45000.0
	// The first hrOpenArrivals arrivals of the trace are sent open loop
	// at hrOpenRate arrivals per second, about a third of the closed-loop
	// capacity on a 2-vCPU host; the rest are sent closed loop.
	hrOpenArrivals = 4500
	hrOpenRate     = 3000.0
	// hrRingSeed fixes the placement of devices on the two nodes.
	hrRingSeed = 42
	// hrWarmArrivals arrivals on extra devices, one per node, run closed
	// loop before the open loop of every round: each round deploys
	// afresh, and its first requests pay for dialling connections and
	// growing the heap. The measured devices never see this traffic.
	hrWarmArrivals = 600
)

var hrOptions = fleet.Options{Shards: hrShards, Cache: true}

// hrTrace is the generated input of http-routed: the open-loop and the
// closed-loop arrivals of each caller, and its warm-up arrivals.
type hrTrace struct {
	open, closed, warm [][]arrival
	// openRate is the open-loop arrival rate (1/s).
	openRate float64
	// devices is the fleet size of each node: the measured devices and
	// the warm-up devices above them.
	devices int
}

func newHRTrace(lib *opset.Library, seed int64, scale float64) (*hrTrace, error) {
	arr, err := genArrivals(lib, traceSpec{devices: hrDevices, rate: hrRate, horizon: hrHorizon * scale, seed: seed})
	if err != nil {
		return nil, err
	}
	nOpen := min(len(arr)/3, int(hrOpenArrivals*scale))
	t := &hrTrace{open: splitCallers(arr[:nOpen], hrCallers), closed: splitCallers(arr[nOpen:], hrCallers), openRate: hrOpenRate}
	// One warm-up device per node, each driven by its own caller.
	ring := placement.MustRing(placement.RingConfig{Owners: hrNodes, Seed: hrRingSeed})
	warmDev := make([]int, hrNodes)
	for n, d := 0, hrDevices; n < hrNodes; d++ {
		if ring.Owner(d) == n {
			warmDev[n], n = d, n+1
		}
	}
	t.devices = warmDev[hrNodes-1] + 1
	warm, err := genArrivals(lib, traceSpec{devices: hrNodes, rate: hrRate, horizon: hrWarmArrivals / (hrNodes * hrRate) * scale, seed: seed ^ 0x3c6ef372fe94f82b})
	if err != nil {
		return nil, err
	}
	t.warm = make([][]arrival, hrCallers)
	for _, a := range warm {
		w := a.device % hrCallers
		a.device = warmDev[a.device]
		t.warm[w] = append(t.warm[w], a)
	}
	return t, nil
}

// hrRound is what one http-routed round measured.
type hrRound struct {
	fleetRound
	setups          []float64 // seconds; the round's own set-up first
	recovery        []float64 // seconds, one per rebuild
	library, closed time.Duration
	closedCalls     int
	openLat, lag    []float64 // open loop: latency from the due time, send lag
	closedLat       []float64
	bytes           int64
	openEnd         int64 // recorder time at the end of the open loop
	mem0, mem1      memSample
	spans           []span
}

func runHTTPRouted(cfg config) (*result, error) {
	plat := platform.OdroidXU4()
	lib, err := dse.StandardLibrary(plat)
	if err != nil {
		return nil, err
	}
	tr, err := newHRTrace(lib, cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	res := &result{values: map[string]float64{}}
	plain, traced, err := measure(cfg,
		func(_ int, rec *recorder) (*hrRound, error) { return httpRoutedRound(plat, tr, rec) },
		func(i int, r *hrRound) error { return settle(res, plat, lib, i, &r.fleetRound) })
	if err != nil {
		return nil, err
	}
	var setups, rates, recov, allocs []float64
	var lat [][]float64
	for _, r := range plain {
		setups = append(setups, r.setups...)
		rates = append(rates, float64(r.closedCalls)/r.closed.Seconds())
		recov = append(recov, r.recovery...)
		allocs = append(allocs, float64(r.mem1.mallocs-r.mem0.mallocs)/float64(r.tally.calls))
		lat = append(lat, r.closedLat)
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
		httpRoutedLayers(res, plain, traced, p50)
	}
	return res, nil
}

// httpRoutedLayers computes the per-layer metrics: the breakdown from
// the traced rounds' closed-loop phase, the open loop's figures from the
// untraced rounds.
func httpRoutedLayers(res *result, plain, traced []*hrRound, untracedP50 float64) {
	v := res.values
	var open, lag []float64
	for _, r := range plain {
		open = append(open, r.openLat...)
		lag = append(lag, r.lag...)
	}
	open, lag = sortedCopy(open), sortedCopy(lag)
	v["loadgen.open_p50_us"] = percentile(open, 50)
	v["loadgen.open_p99_us"] = percentile(open, 99)
	v["loadgen.late_p99_us"] = percentile(lag, 99)

	var lat [][]float64
	var edgeSelf, nodeSelf, hop, service, solve, selfPerOp, share, bytes, maxDepth, dropped, lib, gc, selfErr []float64
	for _, r := range traced {
		lat = append(lat, r.closedLat)
		closed := func(spans []span) []span {
			var out []span
			for _, s := range spans {
				if s.start >= r.openEnd {
					out = append(out, s)
				}
			}
			return out
		}
		roots := closed(ofLayer(r.spans, layerLoadgen))
		svc, cores := ofLayer(r.spans, layerService), ofLayer(r.spans, layerCore)
		chain := [][]span{roots, ofLayer(r.spans, layerClient), ofLayer(r.spans, layerEdge), ofLayer(r.spans, layerBackend), svc, cores}
		selfs := breakdown(chain)
		for op := range roots {
			// The edge round trip minus the backend span covers the client
			// transport, the edge server and the router; the backend span
			// minus the node's service span covers the hop to the node and
			// the node's server.
			edgeSelf = append(edgeSelf, float64(selfs[1][op]+selfs[2][op])/1e3)
			nodeSelf = append(nodeSelf, float64(selfs[3][op])/1e3)
		}
		selfErr = append(selfErr, selfSumError(roots, selfs))
		hop = append(hop, durations(arrivalSpans(closed(chain[3])))...)
		service = append(service, durations(arrivalSpans(closed(svc)))...)
		solve = append(solve, durations(cores)...)
		selfPerOp = append(selfPerOp, float64(totalDur(svc)-totalDur(cores))/1e3/float64(len(svc)))
		share = append(share, ratio(float64(totalDur(cores)), float64(totalDur(svc))))
		bytes = append(bytes, float64(r.bytes)/float64(r.tally.calls))
		maxDepth = append(maxDepth, float64(r.stats.MaxQueueDepth))
		dropped = append(dropped, float64(r.stats.WatchDropped))
		lib = append(lib, r.library.Seconds())
		gc = append(gc, float64(r.mem1.numGC-r.mem0.numGC))
	}
	hop, service, solve = sortedCopy(hop), sortedCopy(service), sortedCopy(solve)
	tracedP50, _, _ := latencyOf(lat)
	v["loadgen.trace_overhead_pct"] = 100 * (tracedP50 - untracedP50) / untracedP50
	v["loadgen.selfsum_err_pct"] = median(selfErr)
	res.check(median(selfErr) <= selfSumTolerance, "layer self times of a median operation miss its latency by %.1f%%", median(selfErr))
	v["httpapi.edge_self_p50_us"] = median(edgeSelf)
	v["httpapi.node_self_p50_us"] = median(nodeSelf)
	v["httpapi.bytes_per_op"] = median(bytes)
	v["router.hop_p50_us"] = percentile(hop, 50)
	v["router.hop_p99_us"] = percentile(hop, 99)
	v["fleet.service_p50_us"] = percentile(service, 50)
	v["fleet.service_p99_us"] = percentile(service, 99)
	v["fleet.self_us_per_op"] = median(selfPerOp)
	v["fleet.max_queue_depth"] = median(maxDepth)
	v["fleet.watch_dropped"] = median(dropped)
	v["core.solve_p50_us"] = percentile(solve, 50)
	v["core.solve_p99_us"] = percentile(solve, 99)
	v["core.solve_share"] = median(share)
	v["dse.library_s"] = median(lib)
	v["process.gc_cycles"] = median(gc)
	v["process.heap_peak_mb"] = heapPeakMiB()
	if len(traced) > 0 {
		rmLayer(v, traced[0].stats)
	}
}

// deployment is the running topology of one round.
type deployment struct {
	fleets     []*fleet.Fleet
	servers    []*http.Server
	served     sync.WaitGroup
	transports []*http.Transport
	edge       api.BatchService
	bytes      atomic.Int64
}

// serve starts an HTTP server for h on a loopback port and returns its
// base URL.
func (d *deployment) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	d.servers = append(d.servers, hs)
	d.served.Add(1)
	go func() {
		defer d.served.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

// client returns an HTTP client holding at most hrConns connections.
// With counting on, it adds every byte read or written on its
// connections to d.bytes.
func (d *deployment) client(counting bool) *http.Client {
	dialer := &net.Dialer{}
	t := &http.Transport{
		MaxConnsPerHost:     hrConns,
		MaxIdleConnsPerHost: hrConns,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := dialer.DialContext(ctx, network, addr)
			if err != nil || !counting {
				return c, err
			}
			return countingConn{c, &d.bytes}, nil
		},
	}
	d.transports = append(d.transports, t)
	return &http.Client{Transport: t}
}

// deploy builds the two node fleets and servers, the router and the edge
// server, and the edge client the callers use.
func deploy(plat platform.Platform, devices int, rec *recorder) (d *deployment, lib *opset.Library, libTime time.Duration, err error) {
	d = &deployment{}
	t := time.Now()
	if lib, err = dse.StandardLibrary(plat); err != nil {
		return d, nil, 0, err
	}
	libTime = time.Since(t)
	backends := make([]router.Backend, hrNodes)
	for n := range backends {
		f, err := fleet.New(newFleetDevices(plat, lib, devices, rec), hrOptions)
		if err != nil {
			return d, lib, libTime, err
		}
		d.fleets = append(d.fleets, f)
		svc, err := traceService(f.Service(), rec, layerService)
		if err != nil {
			return d, lib, libTime, err
		}
		srv, err := httpapi.NewServer(svc, httpapi.ServerOptions{})
		if err != nil {
			return d, lib, libTime, err
		}
		url, err := d.serve(srv)
		if err != nil {
			return d, lib, libTime, err
		}
		backend, err := traceService(httpapi.NewClient(url, "", d.client(rec != nil)), rec, layerBackend)
		if err != nil {
			return d, lib, libTime, err
		}
		backends[n] = router.Backend{Name: fmt.Sprintf("node%d", n), Service: backend}
	}
	rt, err := router.New(backends, placement.MustRing(placement.RingConfig{Owners: hrNodes, Seed: hrRingSeed}))
	if err != nil {
		return d, lib, libTime, err
	}
	edgeSvc, err := traceService(rt, rec, layerEdge)
	if err != nil {
		return d, lib, libTime, err
	}
	srv, err := httpapi.NewServer(edgeSvc, httpapi.ServerOptions{})
	if err != nil {
		return d, lib, libTime, err
	}
	url, err := d.serve(srv)
	if err != nil {
		return d, lib, libTime, err
	}
	edge, err := traceService(httpapi.NewClient(url, "", d.client(rec != nil)), rec, layerClient)
	if err != nil {
		return d, lib, libTime, err
	}
	d.edge = edge.(api.BatchService)
	return d, lib, libTime, nil
}

// shutdown stops the servers, waits for them, drops the idle
// connections and closes the fleets.
func (d *deployment) shutdown() error {
	var errs []error
	for _, hs := range d.servers {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, hs.Shutdown(ctx))
		cancel()
	}
	d.served.Wait()
	for _, t := range d.transports {
		t.CloseIdleConnections()
	}
	for _, f := range d.fleets {
		errs = append(errs, f.Close())
	}
	return errors.Join(errs...)
}

// httpRoutedRound deploys the topology, drives it, shuts it down and
// reads the measured devices' final statistics.
func httpRoutedRound(plat platform.Platform, tr *hrTrace, rec *recorder) (*hrRound, error) {
	r := &hrRound{}
	var d *deployment
	var lib *opset.Library
	setup, err := timed(func() (err error) {
		d, lib, r.library, err = deploy(plat, tr.devices, rec)
		return err
	})
	r.setups = append(r.setups, setup)
	if err == nil {
		err = r.drive(d, plat, lib, tr, rec)
	}
	if serr := d.shutdown(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	if r.final, err = measuredStats(d.fleets); err != nil {
		return nil, err
	}
	r.check(r.final.Accepted == r.final.Completed+r.final.Cancelled,
		"after the drain: accepted %d != completed %d + cancelled %d", r.final.Accepted, r.final.Completed, r.final.Cancelled)
	r.check(r.final.DeadlineMisses == 0, "%d deadline misses", r.final.DeadlineMisses)

	// More set-ups, each shut down again at once, for a steadier setup_s.
	for k := 0; k < extraSetups; k++ {
		var d *deployment
		setup, err := timed(func() (err error) {
			d, _, _, err = deploy(plat, tr.devices, nil)
			return err
		})
		r.setups = append(r.setups, setup)
		if serr := d.shutdown(); err == nil {
			err = serr
		}
		if err != nil {
			return nil, err
		}
	}
	return r, nil
}

// measuredStats sums the statistics of the measured devices, leaving
// out the warm-up devices.
func measuredStats(fleets []*fleet.Fleet) (api.StatsResult, error) {
	var per []api.StatsResult
	for _, f := range fleets {
		for dev := 0; dev < hrDevices; dev++ {
			s, err := f.Service().Stats(context.Background(), api.StatsRequest{Device: &dev})
			if err != nil {
				return api.StatsResult{}, err
			}
			per = append(per, s)
		}
	}
	return sumStats(per), nil
}

// drive warms the deployment up, runs the open-loop then the closed-loop
// phase, checks the outputs, and times rebuilding each node's fleet from
// its device snapshots.
func (r *hrRound) drive(d *deployment, plat platform.Platform, lib *opset.Library, tr *hrTrace, rec *recorder) error {
	ctx := context.Background()
	warm := make([]*caller, hrCallers)
	callers := make([]*caller, hrCallers)
	for i := range callers {
		warm[i] = newCaller(d.edge, nil)
		callers[i] = newCaller(d.edge, rec)
	}
	closedLoop(ctx, warm, tr.warm)
	warmTally, _, _ := merge(warm)
	r.check(warmTally.failed == 0, "%d warm-up calls failed", warmTally.failed)

	r.mem0 = readMem()
	var err error
	if r.lag, err = openLoop(ctx, callers, tr.open, tr.openRate); err != nil {
		return err
	}
	if rec != nil {
		r.openEnd = rec.now()
	}
	var openCalls int
	for _, c := range callers {
		r.openLat = append(r.openLat, c.lat...)
		c.lat = nil
		openCalls += c.calls
	}
	t1 := time.Now()
	closedLoop(ctx, callers, tr.closed)
	r.closed = time.Since(t1)
	for _, c := range callers {
		r.closedLat = append(r.closedLat, c.lat...)
	}
	r.mem1 = readMem()
	if rec != nil {
		r.spans = rec.take()
	}
	r.bytes = d.bytes.Load()
	r.tally, r.outcome, _ = merge(callers)
	r.closedCalls = r.tally.calls - openCalls
	r.check(!backlogged(r.lag), "the open loop fell behind its schedule (send lag grew across the phase)")

	// The routed stats must be the nodes' field-wise sum, and the ledger
	// of the measured devices must close over their active jobs.
	all, err := d.edge.Stats(ctx, api.StatsRequest{})
	if err != nil {
		return err
	}
	var nodes []api.StatsResult
	var recs []map[int]fleet.DeviceRecovery
	active := 0
	for _, f := range d.fleets {
		s, err := f.Service().Stats(ctx, api.StatsRequest{})
		if err != nil {
			return err
		}
		nodes = append(nodes, s)
		rec := map[int]fleet.DeviceRecovery{}
		for dev := 0; dev < f.NumDevices(); dev++ {
			snap, err := f.DeviceSnapshot(dev)
			if err != nil {
				return err
			}
			if dev < hrDevices {
				active += len(snap.Active)
				r.snaps = append(r.snaps, snap)
			}
			rec[dev] = fleet.DeviceRecovery{Snapshot: snap}
		}
		recs = append(recs, rec)
	}
	r.check(all == sumStats(nodes), "routed stats %+v differ from the nodes' sum %+v", all, sumStats(nodes))
	if r.stats, err = measuredStats(d.fleets); err != nil {
		return err
	}
	// Per-device statistics carry no fleet-level counters; take those
	// from the fleet-wide view, warm-up devices included.
	r.stats.MaxQueueDepth, r.stats.WatchDropped = all.MaxQueueDepth, all.WatchDropped
	r.stats.CacheHits, r.stats.CacheMisses, r.stats.CacheRepacks = all.CacheHits, all.CacheMisses, all.CacheRepacks
	checkLedger(r.check, r.tally, r.stats, active)
	r.check(all.WatchDropped == 0, "watch streams dropped %d events", all.WatchDropped)
	r.check(r.tally.failed == 0, "%d calls failed", r.tally.failed)

	// Recovery: rebuild each node's fleet from its device snapshots, a
	// few times over, since one rebuild takes milliseconds.
	for k := 0; k <= extraSetups; k++ {
		var rebuilt []*fleet.Fleet
		took, err := timed(func() error {
			for _, rec := range recs {
				f, _, err := fleet.Recover(newFleetDevices(plat, lib, len(rec), nil), hrOptions, rec)
				if err != nil {
					return err
				}
				rebuilt = append(rebuilt, f)
			}
			return nil
		})
		if err != nil {
			for _, f := range rebuilt {
				f.Close()
			}
			return err
		}
		r.recovery = append(r.recovery, took)
		for i, f := range rebuilt {
			s, err := f.Service().Stats(ctx, api.StatsRequest{})
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			r.check(ledgerOf(s) == ledgerOf(nodes[i]), "node %d rebuilt from snapshots: %+v, want %+v", i, ledgerOf(s), ledgerOf(nodes[i]))
		}
	}
	return nil
}

// sumStats is the field-wise sum of per-node statistics in node order,
// the way a router reports a fleet spread over nodes: device counts and
// queue depths are maxima, every counter a sum.
func sumStats(in []api.StatsResult) api.StatsResult {
	var out api.StatsResult
	for _, s := range in {
		out.Devices = max(out.Devices, s.Devices)
		out.MaxQueueDepth = max(out.MaxQueueDepth, s.MaxQueueDepth)
		out.Shards += s.Shards
		out.Submitted += s.Submitted
		out.Accepted += s.Accepted
		out.Rejected += s.Rejected
		out.Completed += s.Completed
		out.DeadlineMisses += s.DeadlineMisses
		out.Cancelled += s.Cancelled
		out.Energy += s.Energy
		out.Activations += s.Activations
		out.SchedulingTime += s.SchedulingTime
		out.CacheHits += s.CacheHits
		out.CacheMisses += s.CacheMisses
		out.CacheStale += s.CacheStale
		out.CacheEvictions += s.CacheEvictions
		out.CacheRepacks += s.CacheRepacks
		out.CacheSharedHits += s.CacheSharedHits
		out.CachePromotions += s.CachePromotions
		out.ScheduleSwaps += s.ScheduleSwaps
		out.CoalescedBatches += s.CoalescedBatches
		out.CoalescedRequests += s.CoalescedRequests
		out.WatchSubscribers += s.WatchSubscribers
		out.WatchDropped += s.WatchDropped
	}
	return out
}

// countingConn adds the bytes read and written on a connection to n.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(b []byte) (int, error) {
	k, err := c.Conn.Read(b)
	c.n.Add(int64(k))
	return k, err
}

func (c countingConn) Write(b []byte) (int, error) {
	k, err := c.Conn.Write(b)
	c.n.Add(int64(k))
	return k, err
}
