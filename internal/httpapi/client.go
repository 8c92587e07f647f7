package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"adaptrm/internal/api"
)

// Client is the Go client of the daemon protocol. It implements
// api.Service, so code written against the in-process fleet service
// runs unchanged against a remote daemon.
type Client struct {
	baseURL string
	token   string
	http    *http.Client
}

var _ api.Service = (*Client)(nil)

// NewClient builds a client for a daemon at baseURL (e.g.
// "http://localhost:8080"). token may be empty against an open server.
// hc may be nil, defaulting to http.DefaultClient; pass a custom client
// to set timeouts or transports.
func NewClient(baseURL, token string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{baseURL: baseURL, token: token, http: hc}
}

// call performs one round-trip: POST with a JSON body (or GET when body
// is nil), decoding the result into out on 200 and rebuilding the
// taxonomy error — plus any partial result — otherwise.
func (c *Client) call(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("httpapi: encode %s: %w", path, err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.baseURL+path, rd)
	if err != nil {
		return fmt.Errorf("httpapi: %s: %w", path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("httpapi: %s: %w", path, err)
	}
	defer func() {
		// Drain whatever the decoder left so the keep-alive connection
		// returns to the pool instead of being torn down.
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusOK {
		if out == nil {
			return nil
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("httpapi: decode %s: %w", path, err)
		}
		return nil
	}
	// Failure: rebuild the taxonomy error and keep the partial result
	// (e.g. completions delivered alongside a rejection).
	var env struct {
		Error  *api.Error      `json:"error"`
		Result json.RawMessage `json:"result,omitempty"`
	}
	if derr := json.NewDecoder(resp.Body).Decode(&env); derr != nil || env.Error == nil {
		// No envelope — the response came from outside the protocol
		// (mux 404/405, a proxy, ...). Approximate a taxonomy code from
		// the status so caller mistakes are not misfiled as internal
		// server failures.
		return api.Errf(statusSentinel(resp.StatusCode), "%s: HTTP %d without error envelope", path, resp.StatusCode)
	}
	if out != nil && len(env.Result) > 0 {
		_ = json.Unmarshal(env.Result, out)
	}
	// Fold through FromCode so a newer server's unknown codes still
	// match a sentinel (ErrInternal) instead of matching nothing.
	return api.FromCode(env.Error.Code, env.Error.Message)
}

// statusSentinel maps a bare HTTP status onto the nearest taxonomy
// sentinel, for responses that carry no protocol envelope.
func statusSentinel(status int) *api.Error {
	switch status {
	case http.StatusUnauthorized:
		return api.ErrUnauthorized
	case http.StatusForbidden:
		return api.ErrForbidden
	case http.StatusTooManyRequests:
		return api.ErrQuotaExceeded
	case http.StatusRequestEntityTooLarge:
		return api.ErrPayloadTooLarge
	case http.StatusServiceUnavailable:
		return api.ErrOverloaded
	case http.StatusBadGateway:
		return api.ErrUnavailable
	default:
		if status >= 400 && status < 500 {
			return api.ErrBadRequest
		}
		return api.ErrInternal
	}
}

// Submit implements api.Service over HTTP.
func (c *Client) Submit(ctx context.Context, req api.SubmitRequest) (api.SubmitResult, error) {
	var res api.SubmitResult
	err := c.call(ctx, http.MethodPost, "/v1/submit", req, &res)
	return res, err
}

// SubmitBatch implements api.Service over HTTP: the whole batch is
// one round-trip and, on a batching server, one scheduler activation
// when jointly feasible. Per-item errors come back inside the verdicts;
// their codes are folded through the taxonomy exactly like call-level
// errors, so errors.Is against the api sentinels works on each.
func (c *Client) SubmitBatch(ctx context.Context, req api.BatchSubmitRequest) (api.BatchSubmitResult, error) {
	var res api.BatchSubmitResult
	err := c.call(ctx, http.MethodPost, "/v1/submit-batch", req, &res)
	for i, v := range res.Verdicts {
		if v.Error != nil {
			// Fold unknown codes (a newer server's) into CodeInternal,
			// matching the call-level decoding path.
			res.Verdicts[i].Error = api.FromCode(v.Error.Code, v.Error.Message)
		}
	}
	return res, err
}

// Advance implements api.Service over HTTP.
func (c *Client) Advance(ctx context.Context, req api.AdvanceRequest) (api.AdvanceResult, error) {
	var res api.AdvanceResult
	err := c.call(ctx, http.MethodPost, "/v1/advance", req, &res)
	return res, err
}

// Cancel implements api.Service over HTTP.
func (c *Client) Cancel(ctx context.Context, req api.CancelRequest) (api.CancelResult, error) {
	var res api.CancelResult
	err := c.call(ctx, http.MethodPost, "/v1/cancel", req, &res)
	return res, err
}

// Stats implements api.Service over HTTP.
func (c *Client) Stats(ctx context.Context, req api.StatsRequest) (api.StatsResult, error) {
	path := "/v1/stats"
	if req.Device != nil {
		path += "?device=" + url.QueryEscape(strconv.Itoa(*req.Device))
	}
	var res api.StatsResult
	err := c.call(ctx, http.MethodGet, path, nil, &res)
	return res, err
}

// Health reports whether the daemon answers its liveness probe.
func (c *Client) Health(ctx context.Context) error {
	return c.call(ctx, http.MethodGet, "/healthz", nil, nil)
}
