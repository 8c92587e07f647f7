package fleet

import (
	"context"
	"errors"
	"fmt"
	"time"

	"adaptrm/internal/api"
	"adaptrm/internal/control"
	"adaptrm/internal/rm"
)

// Service is the fleet's native implementation of the transport-agnostic
// api.Service protocol: every mailbox operation carries a reply channel,
// so callers receive the per-request outcome — job id, admission
// verdict, completions — unlike the fire-and-forget Fleet.Replay.
// Context cancellation is honoured both while blocked on a full mailbox
// (backpressure, api.ErrOverloaded) and while waiting for the device's
// worker to reply.
type Service struct {
	f *Fleet
}

var (
	_ api.Service      = (*Service)(nil)
	_ api.BatchService = (*Service)(nil)
)

// Service returns the api.Service view of the fleet. The view shares
// the fleet's shards and devices; mixing Service calls with Replay and
// Cancel is safe, and per-device FIFO order spans both.
func (f *Fleet) Service() *Service { return &Service{f: f} }

// do posts one operation with a reply channel and waits for its
// outcome, mapping fleet and manager errors onto the api taxonomy.
func (s *Service) do(ctx context.Context, dev int, o op) (opReply, error) {
	o.reply = make(chan opReply, 1)
	switch err := s.f.post(ctx, dev, o); {
	case err == nil:
	case errors.Is(err, errOutOfRange):
		return opReply{}, fmt.Errorf("%w: %w", api.ErrUnknownDevice, err)
	case errors.Is(err, errClosed):
		return opReply{}, fmt.Errorf("%w: %w", api.ErrClosed, err)
	case errors.Is(err, errMailboxBlocked):
		// The send waited on a full mailbox for the whole context
		// lifetime: backpressure. The context error rides along so
		// callers can also match context.Canceled / DeadlineExceeded.
		return opReply{}, fmt.Errorf("%w: device %d: %w", api.ErrOverloaded, dev, err)
	default:
		// The context was already dead before the send was attempted —
		// the caller's problem, not overload.
		return opReply{}, fmt.Errorf("fleet: device %d: %w", dev, err)
	}
	select {
	case r := <-o.reply:
		return r, mapManagerError(r.err)
	case <-ctx.Done():
		// The op is already enqueued and will still execute (per-device
		// FIFO order must not develop holes); only the caller gives up.
		return opReply{}, fmt.Errorf("fleet: abandoned waiting for device %d: %w", dev, ctx.Err())
	}
}

// mapManagerError lifts rm sentinels onto the api taxonomy.
func mapManagerError(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, rm.ErrUnknownApp):
		return fmt.Errorf("%w: %w", api.ErrUnknownApp, err)
	case errors.Is(err, rm.ErrBadDeadline), errors.Is(err, rm.ErrTimeBackwards):
		return fmt.Errorf("%w: %w", api.ErrBadRequest, err)
	case errors.Is(err, rm.ErrNoSuchJob):
		return fmt.Errorf("%w: %w", api.ErrUnknownJob, err)
	default:
		return fmt.Errorf("%w: %w", api.ErrInternal, err)
	}
}

// shed rejects an admission request early when the degradation
// controller holds the fleet in ModeShedding: the request is refused
// with api.ErrOverloaded before any mailbox slot or scheduler
// activation is spent. Only valid device indices shed (an unknown
// device keeps its taxonomy error), and only submit paths — advances
// and cancels always run so admitted work keeps draining.
func (s *Service) shed(dev int) error {
	f := s.f
	if f.ctl == nil || dev < 0 || dev >= len(f.devices) {
		return nil
	}
	if f.limits.Limits().Mode != control.ModeShedding {
		return nil
	}
	f.ctl.NoteShed()
	return api.Errf(api.ErrOverloaded, "device %d: shedding load", dev)
}

// observeLatency feeds one admission's service latency back to the
// degradation controller (no-op without one).
func (s *Service) observeLatency(start time.Time) {
	if s.f.ctl != nil {
		s.f.ctl.ObserveLatency(time.Since(start))
	}
}

// Submit implements api.Service: it negotiates admission of one request
// and returns the decision. A rejection returns the result (carrying
// any completions observed while the device advanced) together with
// api.ErrInfeasible. In ModeShedding the request is refused with
// api.ErrOverloaded before a scheduler activation is spent.
func (s *Service) Submit(ctx context.Context, req api.SubmitRequest) (api.SubmitResult, error) {
	if err := s.shed(req.Device); err != nil {
		return api.SubmitResult{}, err
	}
	start := time.Now()
	r, err := s.do(ctx, req.Device, op{kind: opSubmit, at: req.At, app: req.App, deadline: req.Deadline})
	s.observeLatency(start)
	res := api.SubmitResult{JobID: r.jobID, Accepted: r.accepted, Completions: r.done}
	if err != nil {
		return res, err
	}
	if !r.accepted {
		return res, api.Errf(api.ErrInfeasible, "device %d rejected %q (arrival %v, deadline %v)",
			req.Device, req.App, req.At, req.Deadline)
	}
	return res, nil
}

// SubmitBatch implements api.BatchService: all items arrive at req.At
// and are decided in one manager activation when jointly feasible (the
// fast path of rm.Manager.SubmitBatch), with verdicts identical to
// sequential submission. Per-item outcomes — admission, rejection,
// unknown application, invalid deadline — are verdicts, never the call
// error; the call error is reserved for whole-batch failures (unknown
// device, overload, closed, time moving backwards). The shard worker
// reads req.Items in place, possibly after a cancelled call returned,
// so the caller must not modify them afterwards.
func (s *Service) SubmitBatch(ctx context.Context, req api.BatchSubmitRequest) (api.BatchSubmitResult, error) {
	// The empty batch is a no-op: nothing to decide, nothing enqueued,
	// nothing charged — an empty result, not an error.
	if len(req.Items) == 0 {
		return api.BatchSubmitResult{}, nil
	}
	if err := s.shed(req.Device); err != nil {
		return api.BatchSubmitResult{}, err
	}
	start := time.Now()
	r, err := s.do(ctx, req.Device, op{kind: opBatch, at: req.At, items: req.Items})
	s.observeLatency(start)
	res := api.BatchSubmitResult{Completions: r.done}
	if err != nil {
		return res, err
	}
	res.Verdicts = make([]api.BatchVerdict, len(r.verdicts))
	for i, v := range r.verdicts {
		res.Verdicts[i] = api.BatchVerdict{JobID: v.JobID, Accepted: v.Accepted, Error: verdictError(v)}
	}
	return res, nil
}

// verdictError folds one rm verdict into the wire-form taxonomy error:
// nil for admissions, CodeInfeasible for clean rejections, and the
// mapped manager error otherwise.
func verdictError(v rm.Verdict) *api.Error {
	switch {
	case v.Accepted:
		return nil
	case v.Err == nil:
		return api.FromCode(api.CodeInfeasible, "no feasible schedule for the request")
	default:
		return api.FromCode(api.ErrorCode(mapManagerError(v.Err)), v.Err.Error())
	}
}

// Advance implements api.Service: it moves a device's virtual clock
// forward and returns the completions that produced.
func (s *Service) Advance(ctx context.Context, req api.AdvanceRequest) (api.AdvanceResult, error) {
	r, err := s.do(ctx, req.Device, op{kind: opAdvance, at: req.To})
	return api.AdvanceResult{Completions: r.done}, err
}

// Cancel implements api.Service: it aborts an active job, reclaiming
// its resources for the remaining jobs.
func (s *Service) Cancel(ctx context.Context, req api.CancelRequest) (api.CancelResult, error) {
	_, err := s.do(ctx, req.Device, op{kind: opCancel, jobID: req.JobID})
	return api.CancelResult{Cancelled: err == nil}, err
}

// Stats implements api.Service: fleet-wide when req.Device is nil,
// otherwise for the single addressed device. Snapshots are taken under
// the device locks, not through the mailboxes, so they may be observed
// mid-traffic exactly like Fleet.Stats.
func (s *Service) Stats(ctx context.Context, req api.StatsRequest) (api.StatsResult, error) {
	if err := ctx.Err(); err != nil {
		return api.StatsResult{}, err
	}
	if req.Device == nil {
		return s.f.Stats(), nil
	}
	ds, err := s.f.DeviceStats(*req.Device)
	if err != nil {
		return api.StatsResult{}, fmt.Errorf("%w: %w", api.ErrUnknownDevice, err)
	}
	return deviceResult(ds), nil
}

// deviceResult is one device's manager statistics in wire form.
func deviceResult(ms rm.Stats) api.StatsResult {
	return api.StatsResult{
		Devices:        1,
		Submitted:      ms.Submitted,
		Accepted:       ms.Accepted,
		Rejected:       ms.Rejected,
		Completed:      ms.Completed,
		DeadlineMisses: ms.DeadlineMisses,
		Cancelled:      ms.Cancelled,
		Energy:         ms.Energy,
		Activations:    ms.Activations,
		SchedulingTime: ms.SchedulingTime,
		ScheduleSwaps:  ms.Swapped,
	}
}

// QueueDepths exposes the per-shard mailbox depths on the service view;
// the HTTP front-end discovers it by interface assertion for the
// /metrics per-shard gauge.
func (s *Service) QueueDepths() []int { return s.f.QueueDepths() }

// DeviceEventSeqs exposes the per-device event positions on the service
// view; the HTTP front-end discovers it by interface assertion for the
// /metrics per-device event-sequence gauge (the reference the WAL
// position is measured against).
func (s *Service) DeviceEventSeqs() []uint64 { return s.f.DeviceEventSeqs() }
