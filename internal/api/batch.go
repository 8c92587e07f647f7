package api

// BatchItem is one admission request of a batched submission: an
// application name and its absolute firm deadline. The arrival time is
// the batch's.
type BatchItem struct {
	// App names an operating-point table of the device's library.
	App string `json:"app"`
	// Deadline is the absolute firm deadline (s), strictly after the
	// batch arrival time.
	Deadline float64 `json:"deadline"`
}

// BatchSubmitRequest asks a device to decide several same-time requests
// in one activation. Batched admission is behaviour-preserving: the
// verdicts, job ids and final schedule are identical to submitting the
// items one by one at At; only the scheduler-activation count (and
// hence latency under bursty traffic) differs.
type BatchSubmitRequest struct {
	// Device is the fleet device index.
	Device int `json:"device"`
	// At is the common virtual arrival time (s); per-device times must
	// be non-decreasing.
	At float64 `json:"at"`
	// Items are the requests, decided in order.
	Items []BatchItem `json:"items"`
}

// TargetDevice returns the addressed device, letting transport layers
// authorise any mutating request uniformly.
func (r BatchSubmitRequest) TargetDevice() int { return r.Device }

// BatchVerdict is the admission decision for one batch item.
type BatchVerdict struct {
	// JobID is the admitted job's id (0 when not admitted).
	JobID int `json:"job_id"`
	// Accepted is the admission verdict.
	Accepted bool `json:"accepted"`
	// Error carries the per-item failure as a taxonomy error: a clean
	// rejection gets CodeInfeasible, an unknown application
	// CodeUnknownApp, a deadline at or before the batch time
	// CodeBadRequest. Nil when the item was admitted.
	Error *Error `json:"error,omitempty"`
}

// BatchSubmitResult is the outcome of a batched submission. Unlike
// Submit, rejection is not the call's error — a batch can mix verdicts,
// so each item carries its own; the call-level error is reserved for
// failures affecting the batch as a whole (unknown device, overload,
// malformed batch).
type BatchSubmitResult struct {
	// Verdicts holds one entry per item, in item order. A failed call
	// (unknown device, overload, closed) decides no item, so it carries
	// no verdicts.
	Verdicts []BatchVerdict `json:"verdicts"`
	// Completions lists jobs that finished in (previous now, At] while
	// the device advanced to the batch arrival time.
	Completions []Completion `json:"completions,omitempty"`
}

// BatchService is the batched half of Service, kept as a name for
// older callers.
//
// Deprecated: every Service implements SubmitBatch; use Service.
type BatchService = Service
