package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"adaptrm/internal/api"
	"adaptrm/internal/opset"
	"adaptrm/internal/workload"
)

// The operation mix follows rmsoak: after every advanceEvery-th arrival
// on a device the caller advances that device's clock to the arrival
// time, and whenever its admission count is a multiple of cancelEvery it
// cancels the most recent admission on the arrival's device.
const (
	advanceEvery = 5
	cancelEvery  = 7
)

// arrival is one admission operation of a generated trace: a single
// request, sent as a Submit, or a burst of coincident same-device
// requests, sent as one SubmitBatch.
type arrival struct {
	device int
	at     float64
	items  []api.BatchItem
}

// traceSpec describes a generated fleet trace.
type traceSpec struct {
	devices int
	// rate is the per-device rate of single requests (1/s); burstRate
	// the per-device rate of bursts of burstSize coincident requests
	// (0: no bursts).
	rate, burstRate float64
	burstSize       int
	horizon         float64
	seed            int64
}

// genArrivals generates the trace of spec from its seed: a plain
// workload.FleetTrace, merged with a bursty one when burstRate is set,
// with coincident same-device requests grouped into one arrival.
func genArrivals(lib *opset.Library, spec traceSpec) ([]arrival, error) {
	reqs, err := workload.FleetTrace(lib, workload.FleetTraceParams{
		Devices: spec.devices, Rate: spec.rate, Horizon: spec.horizon, Seed: spec.seed,
	})
	if err != nil {
		return nil, err
	}
	if spec.burstRate > 0 {
		bursts, err := workload.FleetTrace(lib, workload.FleetTraceParams{
			Devices: spec.devices, Rate: spec.burstRate, Horizon: spec.horizon,
			Seed: spec.seed ^ 0x6a09e667f3bcc909, BurstSize: spec.burstSize,
		})
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, bursts...)
		sort.SliceStable(reqs, func(i, j int) bool {
			if reqs[i].At != reqs[j].At {
				return reqs[i].At < reqs[j].At
			}
			return reqs[i].Device < reqs[j].Device
		})
	}
	var out []arrival
	for _, r := range reqs {
		it := api.BatchItem{App: r.App, Deadline: r.Deadline}
		if n := len(out); n > 0 && out[n-1].device == r.Device && out[n-1].at == r.At {
			out[n-1].items = append(out[n-1].items, it)
			continue
		}
		out = append(out, arrival{device: r.Device, at: r.At, items: []api.BatchItem{it}})
	}
	return out, nil
}

// splitCallers gives caller w the arrivals of the devices d with
// d mod callers == w, in trace order, so that callers own disjoint
// device sets and each device sees its arrivals in time order.
func splitCallers(arr []arrival, callers int) [][]arrival {
	out := make([][]arrival, callers)
	for _, a := range arr {
		out[a.device%callers] = append(out[a.device%callers], a)
	}
	return out
}

// tally counts a caller's operations and their outcomes. Requests count
// batch items one by one; calls count service calls.
type tally struct {
	calls, failed                 int
	submitted, accepted, rejected int
	cancelled, cancelMissed       int
}

func (t *tally) add(o tally) {
	t.calls += o.calls
	t.failed += o.failed
	t.submitted += o.submitted
	t.accepted += o.accepted
	t.rejected += o.rejected
	t.cancelled += o.cancelled
	t.cancelMissed += o.cancelMissed
}

// caller drives one device set through a service, one call at a time.
// An infeasible admission and a cancel of an already-finished job are
// outcomes; every other error is a failed call.
type caller struct {
	svc api.BatchService
	// rec, when set, receives one loadgen span per arrival.
	rec *recorder
	tally
	// lat holds the latency of every arrival call, in microseconds.
	lat []float64
	// outcome hashes every call's verdict in call order.
	outcome hash.Hash64
	buf     []byte

	arrivals map[int]int // per device
	admitted int
	lastJob  map[int]int // per device: most recent admission
}

func newCaller(svc api.BatchService, rec *recorder) *caller {
	return &caller{svc: svc, rec: rec, outcome: fnv.New64a(), arrivals: map[int]int{}, lastJob: map[int]int{}}
}

// note folds one call's outcome into the hash.
func (c *caller) note(kind opKind, dev int, at float64, job int, ok bool, err error) {
	code := ""
	if err != nil {
		code = api.ErrorCode(err)
	}
	c.noteCode(kind, dev, at, job, ok, code)
}

func (c *caller) noteCode(kind opKind, dev int, at float64, job int, ok bool, code string) {
	b := c.buf[:0]
	b = append(b, byte(kind))
	b = binary.LittleEndian.AppendUint32(b, uint32(dev))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(at))
	b = binary.LittleEndian.AppendUint32(b, uint32(job))
	if ok {
		b = append(b, 1)
	}
	b = append(b, code...)
	c.buf = b
	c.outcome.Write(b)
}

// arrive sends one arrival and records its verdicts. It reports whether
// the call succeeded, so the follow-ups may run.
func (c *caller) arrive(ctx context.Context, a arrival) bool {
	c.calls++
	c.submitted += len(a.items)
	if len(a.items) == 1 {
		it := a.items[0]
		res, err := c.svc.Submit(ctx, api.SubmitRequest{Device: a.device, At: a.at, App: it.App, Deadline: it.Deadline})
		c.note(kindSubmit, a.device, a.at, res.JobID, res.Accepted, err)
		switch {
		case err == nil:
			c.admit(a.device, res.JobID)
		case errors.Is(err, api.ErrInfeasible):
			c.rejected++
		default:
			c.failed++
			c.submitted--
			return false
		}
		return true
	}
	res, err := c.svc.SubmitBatch(ctx, api.BatchSubmitRequest{Device: a.device, At: a.at, Items: a.items})
	c.note(kindBatch, a.device, a.at, len(res.Verdicts), false, err)
	if err != nil || len(res.Verdicts) != len(a.items) {
		c.failed++
		c.submitted -= len(a.items)
		return false
	}
	for _, v := range res.Verdicts {
		code := ""
		if v.Error != nil {
			code = v.Error.Code
		}
		c.noteCode(kindBatch, a.device, a.at, v.JobID, v.Accepted, code)
		switch {
		case v.Accepted:
			c.admit(a.device, v.JobID)
		case v.Error != nil && v.Error.Code == api.CodeInfeasible:
			c.rejected++
		default:
			// A per-item error other than a clean rejection means the
			// generated request was malformed.
			c.failed++
		}
	}
	return true
}

// timed records the latency of arrival a, timed from start.
func (c *caller) timed(a arrival, start time.Time) {
	end := time.Now()
	c.lat = append(c.lat, micros(end.Sub(start)))
	if c.rec != nil {
		kind := kindSubmit
		if len(a.items) > 1 {
			kind = kindBatch
		}
		c.rec.add(span{start: c.rec.ns(start), end: c.rec.ns(end), at: a.at, device: int32(a.device), layer: layerLoadgen, kind: kind})
	}
}

func (c *caller) admit(dev, job int) {
	c.accepted++
	c.admitted++
	c.lastJob[dev] = job
}

// followUps sends the advance and cancel the mix calls for after
// arrival a.
func (c *caller) followUps(ctx context.Context, a arrival) {
	c.arrivals[a.device]++
	if c.arrivals[a.device]%advanceEvery == 0 {
		c.calls++
		_, err := c.svc.Advance(ctx, api.AdvanceRequest{Device: a.device, To: a.at})
		c.note(kindAdvance, a.device, a.at, 0, err == nil, err)
		if err != nil {
			c.failed++
		}
	}
	if c.admitted > 0 && c.admitted%cancelEvery == 0 {
		if job, ok := c.lastJob[a.device]; ok {
			delete(c.lastJob, a.device)
			c.calls++
			res, err := c.svc.Cancel(ctx, api.CancelRequest{Device: a.device, JobID: job})
			c.note(kindCancel, a.device, float64(job), job, res.Cancelled, err)
			switch {
			case err == nil:
				c.cancelled++
			case errors.Is(err, api.ErrUnknownJob):
				c.cancelMissed++
			default:
				c.failed++
			}
		}
	}
}

// closedLoop runs one goroutine per caller, each sending its arrivals
// back to back, and waits for all of them.
func closedLoop(ctx context.Context, callers []*caller, work [][]arrival) {
	var wg sync.WaitGroup
	for w, c := range callers {
		wg.Add(1)
		go func(c *caller, arr []arrival) {
			defer wg.Done()
			for _, a := range arr {
				t0 := time.Now()
				ok := c.arrive(ctx, a)
				c.timed(a, t0)
				if ok {
					c.followUps(ctx, a)
				}
			}
		}(c, work[w])
	}
	wg.Wait()
}

// openLoop sends arrivals on a fixed schedule: the n-th arrival of the
// phase, whichever caller draws it, is due at start + n/rate. A caller
// that is still busy when a ticket falls due sends late. Latency is
// timed from the due time, so a stall also counts against the requests
// queued behind it. lag receives each arrival's send lag (µs) indexed
// by ticket.
func openLoop(ctx context.Context, callers []*caller, work [][]arrival, rate float64) (lag []float64, err error) {
	total := 0
	for _, arr := range work {
		total += len(arr)
	}
	lag = make([]float64, total)
	pacers := make([]*pacer, len(callers))
	for i := range pacers {
		if pacers[i], err = newPacer(); err != nil {
			break
		}
	}
	defer func() {
		for _, p := range pacers {
			if p != nil {
				err = errors.Join(err, p.close())
			}
		}
	}()
	if err != nil {
		return nil, err
	}
	errs := make([]error, len(callers))
	var tickets atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w, c := range callers {
		wg.Add(1)
		go func(w int, c *caller, arr []arrival) {
			defer wg.Done()
			for _, a := range arr {
				n := tickets.Add(1) - 1
				due := start.Add(time.Duration(float64(n) / rate * float64(time.Second)))
				if errs[w] = pacers[w].sleepUntil(due); errs[w] != nil {
					return
				}
				lag[n] = micros(time.Since(due))
				ok := c.arrive(ctx, a)
				c.timed(a, due)
				if ok {
					c.followUps(ctx, a)
				}
			}
		}(w, c, work[w])
	}
	wg.Wait()
	return lag, errors.Join(errs...)
}

// pacer waits for deadlines on a timerfd that the runtime's network
// poller watches: the waiting goroutine holds no processor, and the
// poller wakes it within microseconds of the deadline. A runtime timer
// would wake an otherwise idle process only on the poller's millisecond
// ticks, making every open-loop arrival up to a millisecond late, and a
// nanosleep would hold a processor that the servers need.
type pacer struct {
	fd  int
	f   *os.File
	buf [8]byte
}

func newPacer() (*pacer, error) {
	const clockMonotonic, tfdNonblock, tfdCloexec = 1, syscall.O_NONBLOCK, syscall.O_CLOEXEC
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

// sleepUntil blocks until t.
func (p *pacer) sleepUntil(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(int64(d))} // interval, value
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(p.fd), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	_, err := p.f.Read(p.buf[:])
	return err
}

func (p *pacer) close() error { return p.f.Close() }

// backlogged reports whether the open loop fell behind its schedule: the
// median send lag of the last quarter of the phase exceeds that of the
// first quarter by more than 10 ms. A loop offered more than it can send
// falls behind linearly — 1% over capacity is 15 ms by the end of a
// 1.5 s phase — while a stall of the host delays a few dozen arrivals and
// moves neither median. Latencies measured under a growing backlog
// measure the queue, not the system.
func backlogged(lag []float64) bool {
	n := len(lag) / 4
	if n == 0 {
		return false
	}
	return median(lag[len(lag)-n:])-median(lag[:n]) > 10_000
}

// merge sums the callers' tallies and hashes their outcomes in caller
// order.
func merge(callers []*caller) (tally, uint64, []float64) {
	var t tally
	h := fnv.New64a()
	var lat []float64
	for _, c := range callers {
		t.add(c.tally)
		h.Write(binary.LittleEndian.AppendUint64(nil, c.outcome.Sum64()))
		lat = append(lat, c.lat...)
	}
	return t, h.Sum64(), lat
}
