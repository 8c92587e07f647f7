package httpapi

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"adaptrm/internal/api"
)

// handleWatch serves GET /v1/watch as a Server-Sent-Events stream over
// the wrapped service's Watch. The pre-stream pipeline mirrors the
// other read-only verb (authenticate, authorise the scope, validate the
// query) and failures there are ordinary JSON error envelopes; once the
// stream starts, the only remaining signals are events, heartbeats and
// the connection closing.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenantOf(r)
	if err != nil {
		writeError(w, err, nil)
		return
	}
	var req api.WatchRequest
	q := r.URL.Query()
	scope := -1
	if qd := q.Get("device"); qd != "" {
		n, err := strconv.Atoi(qd)
		if err != nil {
			writeError(w, api.Errf(api.ErrBadRequest, "device query %q: %v", qd, err), nil)
			return
		}
		req.Device, scope = &n, n
	}
	// Fleet-wide scope is for unrestricted tenants only, like stats;
	// an explicit negative device is an unknown device and is left to
	// the service to report uniformly.
	if scope >= 0 || req.Device == nil {
		if err := allow(t, scope); err != nil {
			writeError(w, err, nil)
			return
		}
	}
	if qs := q.Get("from_seq"); qs != "" {
		n, err := strconv.ParseUint(qs, 10, 64)
		if err != nil {
			writeError(w, api.Errf(api.ErrBadRequest, "from_seq query %q: %v", qs, err), nil)
			return
		}
		req.FromSeq = n
	}
	if qb := q.Get("buffer"); qb != "" {
		n, err := strconv.Atoi(qb)
		if err != nil {
			writeError(w, api.Errf(api.ErrBadRequest, "buffer query %q: %v", qb, err), nil)
			return
		}
		req.Buffer = n
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, api.Errf(api.ErrInternal, "transport cannot stream"), nil)
		return
	}
	ch, err := s.svc.Watch(r.Context(), req)
	if err != nil {
		writeError(w, err, nil)
		return
	}
	// A daemon's server-level ReadTimeout covers the whole request —
	// including the background read that detects client disconnects —
	// and would sever a long-lived stream when it fires. Streams pace
	// themselves (heartbeats, write failures), so lift the read
	// deadline for this connection; transports that cannot are left
	// with their configured behaviour.
	_ = http.NewResponseController(w).SetReadDeadline(time.Time{})
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // streaming through buffering proxies
	w.WriteHeader(http.StatusOK)
	// An opening comment commits the response headers immediately, so
	// the client observes a live stream before the first event.
	fmt.Fprint(w, ": stream open\n\n")
	flusher.Flush()

	ticker := time.NewTicker(s.heartbeat)
	defer ticker.Stop()
	// buf holds one SSE message at a time, reused for the stream's
	// lifetime: the event JSON comes from api.AppendEvent, the same
	// encoder the write-ahead log frames with.
	var buf []byte
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				// The subscription ended (service shutdown after its
				// final drain, or the request context ended): close the
				// response, which the client sees as end-of-stream.
				return
			}
			buf = append(buf[:0], "id: "...)
			buf = strconv.AppendUint(buf, ev.Seq, 10)
			buf = append(buf, "\nevent: "...)
			buf = append(buf, ev.Type...)
			buf = append(buf, "\ndata: "...)
			buf = api.AppendEvent(buf, ev)
			buf = append(buf, "\n\n"...)
			if _, err := w.Write(buf); err != nil {
				return // client gone; the request context ends the watch
			}
			flusher.Flush()
		case <-ticker.C:
			if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-s.streamStop:
			// Graceful daemon shutdown: the stream ends here so
			// http.Server.Shutdown can drain; returning cancels the
			// request context, which ends the service subscription.
			return
		case <-r.Context().Done():
			return
		}
	}
}

// Watch implements api.Service over HTTP: it opens the daemon's
// /v1/watch SSE stream and decodes it onto a channel, preserving the
// in-process semantics — per-device sequence order, resume via FromSeq,
// EventLagged on overflow — so a consumer can swap the fleet for a
// remote daemon without changing its event loop. The channel closes
// when ctx ends, the server shuts down, or the connection breaks;
// consumers needing continuity reconnect with FromSeq set to their last
// observed sequence number plus one.
func (c *Client) Watch(ctx context.Context, req api.WatchRequest) (<-chan api.Event, error) {
	vals := url.Values{}
	if req.Device != nil {
		vals.Set("device", strconv.Itoa(*req.Device))
	}
	if req.FromSeq > 0 {
		vals.Set("from_seq", strconv.FormatUint(req.FromSeq, 10))
	}
	if req.Buffer > 0 {
		vals.Set("buffer", strconv.Itoa(req.Buffer))
	}
	path := "/v1/watch"
	if len(vals) > 0 {
		path += "?" + vals.Encode()
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.baseURL+path, nil)
	if err != nil {
		return nil, fmt.Errorf("httpapi: %s: %w", path, err)
	}
	hreq.Header.Set("Accept", "text/event-stream")
	if c.token != "" {
		hreq.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.http.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("httpapi: %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		var env struct {
			Error *api.Error `json:"error"`
		}
		if derr := json.NewDecoder(resp.Body).Decode(&env); derr != nil || env.Error == nil {
			return nil, api.Errf(statusSentinel(resp.StatusCode), "%s: HTTP %d without error envelope", path, resp.StatusCode)
		}
		return nil, api.FromCode(env.Error.Code, env.Error.Message)
	}
	ch := make(chan api.Event)
	go func() {
		// Cancelling ctx aborts the in-flight body read, so the scanner
		// loop ends promptly; either way the channel closes.
		defer close(ch)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 4096), 1<<20)
		var data []byte
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				// Dispatch boundary: a blank line ends one SSE message.
				if len(data) == 0 {
					continue // heartbeat or field-only message
				}
				var ev api.Event
				if err := json.Unmarshal(data, &ev); err == nil {
					select {
					case ch <- ev:
					case <-ctx.Done():
						return
					}
				}
				data = data[:0]
			case strings.HasPrefix(line, "data:"):
				data = append(data, strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " ")...)
			default:
				// id:/event: duplicate what data carries; comments are
				// heartbeats. All ignored.
			}
		}
	}()
	return ch, nil
}
