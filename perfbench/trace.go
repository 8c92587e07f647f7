package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"adaptrm/internal/api"
	"adaptrm/internal/job"
	"adaptrm/internal/platform"
	"adaptrm/internal/sched"
	"adaptrm/internal/schedule"
)

// layer names the boundary a span was recorded at. The layers nest
// along a request's blocking path in declaration order: the load
// generator's arrival contains the client call, which contains the edge
// service call, which contains the router's backend call, which
// contains the node's fleet service call, which contains the solver
// activations.
type layer uint8

const (
	// layerLoadgen spans one arrival as the load generator sees it: from
	// its due time (open loop) or its send (closed loop) to the reply.
	layerLoadgen layer = iota
	// layerClient spans the edge httpapi.Client call (http-routed).
	layerClient
	// layerEdge spans the router handed to the edge httpapi server.
	layerEdge
	// layerBackend spans one router.Backend.Service call: the router's
	// HTTP hop to a node.
	layerBackend
	// layerService spans a fleet.Service call: the one handed to a
	// node's httpapi server, or the one the fleet-durable callers use.
	layerService
	// layerCore spans one MMKP-MDF activation.
	layerCore
	// layerLagrange spans one MMKP-LR activation.
	layerLagrange
	// layerExmem spans one EX-MEM activation.
	layerExmem
)

// opKind is the operation a span belongs to.
type opKind uint8

const (
	kindSubmit opKind = iota
	kindBatch
	kindAdvance
	kindCancel
	kindSolve
)

// span is one timed call at a layer boundary. All spans of one
// operation share the key (device, kind, at): at is the operation's
// virtual time (for a cancel, the job id; for a solve, the activation
// instant). Solver spans carry kindSolve, and their parent is the span
// of the same device that encloses them in time — each device has at
// most one operation in flight, so the enclosing span is unique.
type span struct {
	start, end int64 // nanoseconds since the recorder's epoch
	at         float64
	device     int32
	layer      layer
	kind       opKind
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps spans in memory until the round ends. A nil recorder
// records nothing.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// ns converts a wall-clock instant to the recorder's time base.
func (r *recorder) ns(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the spans recorded so far; later spans are not included.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// ofLayer returns the spans of one layer, sorted by start.
func ofLayer(spans []span, l layer) []span {
	var out []span
	for _, s := range spans {
		if s.layer == l {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// selfTime returns the part of parent's interval that none of children
// covers: the parent's duration minus the union of the children's
// intervals clipped to it. children must be sorted by start.
func selfTime(parent span, children []span) int64 {
	covered := int64(0)
	lo, hi := int64(0), int64(-1) // current merged interval, empty
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e <= s {
			continue
		}
		if s > hi {
			if hi > lo {
				covered += hi - lo
			}
			lo, hi = s, e
			continue
		}
		hi = max(hi, e)
	}
	if hi > lo {
		covered += hi - lo
	}
	return parent.dur() - covered
}

// nest assigns every child span to the parent span of the same device
// that encloses it in time. Both slices must be sorted by start; the
// result holds, for each parent, the indices of its children in start
// order. Spans of one device never overlap at one layer, because each
// device has at most one operation in flight.
func nest(parents, children []span) [][]int {
	out := make([][]int, len(parents))
	byDev := map[int32][]int{}
	for i, p := range parents {
		byDev[p.device] = append(byDev[p.device], i)
	}
	next := map[int32]int{} // per device: first parent that may enclose a later child
	for ci, c := range children {
		idx := byDev[c.device]
		k := next[c.device]
		for k < len(idx) && parents[idx[k]].end < c.start {
			k++
		}
		next[c.device] = k
		if k < len(idx) && parents[idx[k]].start <= c.start && c.end <= parents[idx[k]].end {
			out[idx[k]] = append(out[idx[k]], ci)
		}
	}
	return out
}

// breakdown splits every root span (chain[0]) into the self times of
// the layers along its blocking path, where the spans of chain[i+1] nest
// in those of chain[i]. selfs[i][r] is the self time (ns) of layer i
// within root r; summed over i it equals root r's duration.
func breakdown(chain [][]span) (selfs [][]int64) {
	roots := chain[0]
	selfs = make([][]int64, len(chain))
	owner := make([]int, len(roots))
	for i := range owner {
		owner[i] = i
	}
	for lvl, spans := range chain {
		selfs[lvl] = make([]int64, len(roots))
		var groups [][]int
		var nextOwner []int
		if lvl+1 < len(chain) {
			groups = nest(spans, chain[lvl+1])
			nextOwner = make([]int, len(chain[lvl+1]))
			for i := range nextOwner {
				nextOwner[i] = -1
			}
		}
		for i, p := range spans {
			var kids []span
			if groups != nil {
				for _, k := range groups[i] {
					kids = append(kids, chain[lvl+1][k])
					nextOwner[k] = owner[i]
				}
			}
			if owner[i] >= 0 {
				selfs[lvl][owner[i]] += selfTime(p, kids)
			}
		}
		owner = nextOwner
	}
	return selfs
}

// medianOp returns the mean self time (µs) of each layer over the roots
// whose duration ranks between the 40th and 60th percentile: the
// breakdown of a median operation. Its sum is within rounding of the
// median root duration unless the band is skewed.
func medianOp(roots []span, selfs [][]int64) []float64 {
	order := make([]int, len(roots))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return roots[order[a]].dur() < roots[order[b]].dur() })
	lo, hi := len(order)*40/100, len(order)*60/100
	if hi <= lo {
		lo, hi = 0, len(order)
	}
	out := make([]float64, len(selfs))
	for lvl := range selfs {
		var sum int64
		for _, r := range order[lo:hi] {
			sum += selfs[lvl][r]
		}
		out[lvl] = float64(sum) / float64(hi-lo) / 1e3
	}
	return out
}

// durations returns the spans' durations in µs.
func durations(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / 1e3
	}
	return out
}

// totalDur returns the summed duration of the spans in ns.
func totalDur(spans []span) int64 {
	var t int64
	for _, s := range spans {
		t += s.dur()
	}
	return t
}

// arrivalSpans keeps the submit and batch spans.
func arrivalSpans(spans []span) []span {
	var out []span
	for _, s := range spans {
		if s.kind == kindSubmit || s.kind == kindBatch {
			out = append(out, s)
		}
	}
	return out
}

// selfSumTolerance is how far, in percent of the median root duration,
// the self times of a median operation may sum from that median.
const selfSumTolerance = 10

// selfSumError compares the breakdown of a median operation with the
// median root duration: |Σ layer self times − median| / median, in
// percent.
func selfSumError(roots []span, selfs [][]int64) float64 {
	med := percentile(sortedCopy(durations(roots)), 50)
	var sum float64
	for _, s := range medianOp(roots, selfs) {
		sum += s
	}
	if med == 0 {
		return 0
	}
	d := sum - med
	if d < 0 {
		d = -d
	}
	return 100 * d / med
}

// traceService wraps svc so that every mutating call records a span at
// layer l. The wrapper implements exactly the optional interfaces svc
// implements (api.BatchService, api.WatchService, QueueDepths,
// DeviceEventSeqs, WriteMetrics), so the httpapi server, the router and
// the durable writer take the same code paths traced or not. A nil
// recorder returns svc itself.
func traceService(svc api.Service, rec *recorder, l layer) (api.Service, error) {
	if rec == nil {
		return svc, nil
	}
	bs, ok := svc.(api.BatchService)
	if !ok {
		return nil, fmt.Errorf("perfbench: %T is not an api.BatchService", svc)
	}
	ws, ok := svc.(api.WatchService)
	if !ok {
		return nil, fmt.Errorf("perfbench: %T is not an api.WatchService", svc)
	}
	base := timedWatch{timedService{inner: bs, rec: rec, layer: l}, ws}
	_, qd := svc.(interface{ QueueDepths() []int })
	_, seqs := svc.(interface{ DeviceEventSeqs() []uint64 })
	mw, metrics := svc.(metricsWriter)
	switch {
	case qd && seqs && !metrics:
		return timedFleet{base, svc.(fleetExtras)}, nil
	case !qd && !seqs && metrics:
		return timedMetrics{base, mw}, nil
	case !qd && !seqs && !metrics:
		return base, nil
	}
	return nil, fmt.Errorf("perfbench: no forwarding wrapper for the optional interfaces of %T", svc)
}

// fleetExtras are the optional fleet.Service methods the httpapi server
// and the benchmark discover by interface assertion.
type fleetExtras interface {
	QueueDepths() []int
	DeviceEventSeqs() []uint64
}

// metricsWriter is the router's optional /metrics hook.
type metricsWriter interface {
	WriteMetrics(io.Writer) error
}

type timedService struct {
	inner api.BatchService
	rec   *recorder
	layer layer
}

func (s timedService) record(start int64, dev int, kind opKind, at float64) {
	s.rec.add(span{start: start, end: s.rec.now(), at: at, device: int32(dev), layer: s.layer, kind: kind})
}

func (s timedService) Submit(ctx context.Context, req api.SubmitRequest) (api.SubmitResult, error) {
	t := s.rec.now()
	res, err := s.inner.Submit(ctx, req)
	s.record(t, req.Device, kindSubmit, req.At)
	return res, err
}

func (s timedService) SubmitBatch(ctx context.Context, req api.BatchSubmitRequest) (api.BatchSubmitResult, error) {
	t := s.rec.now()
	res, err := s.inner.SubmitBatch(ctx, req)
	s.record(t, req.Device, kindBatch, req.At)
	return res, err
}

func (s timedService) Advance(ctx context.Context, req api.AdvanceRequest) (api.AdvanceResult, error) {
	t := s.rec.now()
	res, err := s.inner.Advance(ctx, req)
	s.record(t, req.Device, kindAdvance, req.To)
	return res, err
}

func (s timedService) Cancel(ctx context.Context, req api.CancelRequest) (api.CancelResult, error) {
	t := s.rec.now()
	res, err := s.inner.Cancel(ctx, req)
	s.record(t, req.Device, kindCancel, float64(req.JobID))
	return res, err
}

func (s timedService) Stats(ctx context.Context, req api.StatsRequest) (api.StatsResult, error) {
	return s.inner.Stats(ctx, req)
}

type timedWatch struct {
	timedService
	ws api.WatchService
}

func (s timedWatch) Watch(ctx context.Context, req api.WatchRequest) (<-chan api.Event, error) {
	return s.ws.Watch(ctx, req)
}

type timedFleet struct {
	timedWatch
	fe fleetExtras
}

func (s timedFleet) QueueDepths() []int        { return s.fe.QueueDepths() }
func (s timedFleet) DeviceEventSeqs() []uint64 { return s.fe.DeviceEventSeqs() }

type timedMetrics struct {
	timedWatch
	mw metricsWriter
}

func (s timedMetrics) WriteMetrics(w io.Writer) error { return s.mw.WriteMetrics(w) }

// traceScheduler wraps s so that every activation records a span at
// layer l for device dev. MMKP-MDF, MMKP-LR and EX-MEM implement no
// optional scheduler interface, so the wrapper forwards Name and
// Schedule only. A nil recorder returns s itself.
func traceScheduler(s sched.Scheduler, rec *recorder, l layer, dev int) sched.Scheduler {
	if rec == nil {
		return s
	}
	return timedScheduler{inner: s, rec: rec, layer: l, device: int32(dev)}
}

type timedScheduler struct {
	inner  sched.Scheduler
	rec    *recorder
	layer  layer
	device int32
}

func (s timedScheduler) Name() string { return s.inner.Name() }

func (s timedScheduler) Schedule(jobs job.Set, plat platform.Platform, t float64) (*schedule.Schedule, error) {
	start := s.rec.now()
	k, err := s.inner.Schedule(jobs, plat, t)
	s.rec.add(span{start: start, end: s.rec.now(), at: t, device: s.device, layer: s.layer, kind: kindSolve})
	return k, err
}
