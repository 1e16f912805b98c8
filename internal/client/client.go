// Package client is the retrying HTTP client for the fisimd
// batch-simulation daemon. It sits below cmd/fisimctl and
// internal/loadgen and above nothing else in this repo — it speaks only
// the public HTTP/JSON API of docs/API.md (its wire structs are
// deliberately redeclared here rather than imported from
// internal/server, so the client stays as thin as curl and never links
// the simulation stack).
//
// The point of the package is the retry discipline, not the transport:
// transient failures (connection errors, 429, 502, 503) are retried
// with jittered exponential backoff, a server-provided Retry-After
// always overrides the computed delay, and retries are safe by
// construction — fisimd deduplicates submissions by content
// fingerprint, so resubmitting the same spec can never double-run an
// experiment; the retry just lands on the already-scheduled job.
package client

import (
	"bufio"
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SubmitResponse mirrors the daemon's POST /v1/jobs answer.
type SubmitResponse struct {
	ID          string `json:"id"`
	Fingerprint string `json:"fingerprint"`
	State       string `json:"state"`
	Deduped     bool   `json:"deduped"`
}

// Status mirrors the status fields clients act on; unknown fields are
// ignored so the client tolerates server additions.
type Status struct {
	ID          string     `json:"id"`
	State       string     `json:"state"`
	Error       string     `json:"error"`
	Lane        string     `json:"lane"`
	Created     time.Time  `json:"created"`
	Started     *time.Time `json:"started"`
	Finished    *time.Time `json:"finished"`
	Cells       int        `json:"cells"`
	CachedCells int        `json:"cached_cells"`
}

// Terminal reports whether a status state is final.
func (s Status) Terminal() bool {
	return s.State == "done" || s.State == "failed" || s.State == "canceled"
}

// Config tunes a Client. The zero value of every field defaults sanely.
type Config struct {
	// Base is the daemon base URL, e.g. "http://localhost:8023".
	Base string
	// APIKey, when set, is sent as X-API-Key on every request — the
	// tenant identity quotas and rate limits are accounted against.
	APIKey string
	// HTTP is the underlying client (default http.DefaultClient).
	HTTP *http.Client
	// MaxAttempts bounds tries per call, first attempt included
	// (default 6). 1 disables retries.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 250ms); MaxDelay
	// caps it (default 15s). A server Retry-After above the computed
	// delay always wins.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed fixes the jitter stream for reproducible tests; 0 derives one
	// from the clock.
	Seed int64
	// Logf, when set, receives one line per retry (attempt, cause,
	// delay) — fisimctl points it at stderr.
	Logf func(format string, args ...any)
}

// Client is a retrying fisimd API client. Safe for concurrent use.
type Client struct {
	cfg Config

	mu  sync.Mutex
	rng *rand.Rand
}

// New builds a client over cfg.
func New(cfg Config) *Client {
	if cfg.HTTP == nil {
		cfg.HTTP = http.DefaultClient
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 6
	}
	if cfg.BaseDelay <= 0 {
		cfg.BaseDelay = 250 * time.Millisecond
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 15 * time.Second
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = entropySeed()
	}
	cfg.Base = strings.TrimRight(cfg.Base, "/")
	return &Client{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// seedCounter desynchronizes the clock-based fallback seed: clients
// built in the same nanosecond (a process fanning out workers, or many
// processes started by one orchestrator on a coarse clock) must not
// share a jitter stream, or their retries arrive as the synchronized
// herd the jitter exists to break up.
var seedCounter atomic.Uint64

// entropySeed draws a jitter seed from the OS entropy pool, falling
// back to the clock mixed with a per-process counter through a
// SplitMix64 step when the pool is unreadable.
func entropySeed() int64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		return int64(binary.LittleEndian.Uint64(b[:]))
	}
	z := uint64(time.Now().UnixNano()) + seedCounter.Add(1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// APIError is a non-2xx daemon answer that was not retried away:
// either a permanent status (4xx other than 429) or a transient one
// that outlived MaxAttempts.
type APIError struct {
	StatusCode int
	Status     string
	Message    string

	retryAfter time.Duration // server Retry-After hint, if any
}

func (e *APIError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("%s: %s", e.Status, e.Message)
	}
	return e.Status
}

// retryable reports whether a status code is worth retrying: overload
// and gateway hiccups, not client errors.
func retryable(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// backoff computes the jittered exponential delay for attempt (0-based)
// honoring a server Retry-After hint as a floor: the exponential term
// jitters ±25% as usual, but the returned delay is never below the
// advertised wait — a client that comes back early lands in the same
// overload that sent it away, wasting an attempt. The floor itself
// jitters upward only (up to +25%) so a thundering herd told
// "Retry-After: 2" still does not return as one.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	d := c.cfg.BaseDelay << attempt
	if d > c.cfg.MaxDelay || d <= 0 {
		d = c.cfg.MaxDelay
	}
	c.mu.Lock()
	f := c.rng.Float64()
	c.mu.Unlock()
	jd := time.Duration(float64(d) * (0.75 + 0.5*f))
	if retryAfter > 0 {
		if floor := retryAfter + time.Duration(float64(retryAfter)*0.25*f); jd < floor {
			jd = floor
		}
	}
	return jd
}

// parseRetryAfter reads a Retry-After header in either RFC 9110 form:
// delta-seconds (the form fisimd emits) or an HTTP-date, evaluated
// against now. Anything else — including dates already in the past —
// yields 0, meaning "no hint".
func parseRetryAfter(h string, now time.Time) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(h); err == nil {
		if d := at.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// do issues one request per attempt, replaying the body each time, and
// retries transient failures until ctx, MaxAttempts, or success. On a
// non-retryable status it drains the error body into *APIError.
func (c *Client) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			d := c.backoff(attempt-1, parseLastRetryAfter(lastErr))
			if c.cfg.Logf != nil {
				c.cfg.Logf("retry %d/%d in %s: %v", attempt, c.cfg.MaxAttempts-1, d.Round(time.Millisecond), lastErr)
			}
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return nil, fmt.Errorf("%w (last error: %v)", ctx.Err(), lastErr)
			}
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.cfg.Base+path, rd)
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if c.cfg.APIKey != "" {
			req.Header.Set("X-API-Key", c.cfg.APIKey)
		}
		resp, err := c.cfg.HTTP.Do(req)
		if err != nil {
			// Connection-level failure: transient by assumption (the
			// submit path is idempotent under dedup, so a request that
			// died mid-flight is safe to replay).
			lastErr = err
			continue
		}
		if resp.StatusCode/100 == 2 {
			return resp, nil
		}
		apiErr := drainError(resp)
		if !retryable(resp.StatusCode) {
			return nil, apiErr
		}
		lastErr = apiErr
	}
	return nil, fmt.Errorf("client: giving up after %d attempts: %w", c.cfg.MaxAttempts, lastErr)
}

// drainError consumes a non-2xx body into an APIError, capturing the
// Retry-After hint.
func drainError(resp *http.Response) *APIError {
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	e := &APIError{StatusCode: resp.StatusCode, Status: resp.Status}
	var wire struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &wire) == nil && wire.Error != "" {
		e.Message = wire.Error
	} else {
		e.Message = string(bytes.TrimSpace(body))
	}
	if ra := parseRetryAfter(resp.Header.Get("Retry-After"), time.Now()); ra > 0 {
		e.retryAfter = ra
	}
	return e
}

// retryAfter rides along inside APIError for backoff computation.
type retryAfterCarrier interface{ RetryAfterHint() time.Duration }

func (e *APIError) RetryAfterHint() time.Duration { return e.retryAfter }

// parseLastRetryAfter extracts the hint from the previous attempt's
// error, if it carried one.
func parseLastRetryAfter(err error) time.Duration {
	if c, ok := err.(retryAfterCarrier); ok {
		return c.RetryAfterHint()
	}
	return 0
}

// Do issues one API request through the retry layer and returns the
// successful response (body unread — the caller owns closing it). It is
// the building block the cluster coordinator drives worker leases with:
// every coordinator→worker call gets the same backoff, Retry-After and
// replay discipline as the public API calls, and callers that stream
// the response (NDJSON lease events, SSE) take over once the connection
// is established. The body must be replayable as given, which is why it
// is a byte slice, not a reader.
func (c *Client) Do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	return c.do(ctx, method, path, body)
}

// Watch follows a job's SSE progress stream, invoking onEvent for every
// event, until the terminal "done" event (nil), ctx expires, or the job
// disappears (a permanent API error, e.g. 404 after a daemon restart).
// A dropped stream — connection reset, daemon drain closing the stream
// mid-job — is reconnected under the client's backoff policy instead of
// surfacing the read error: every SSE event is a full snapshot and a
// terminal job re-delivers its "done" event on attach, so a reconnect
// loses nothing. MaxAttempts bounds *consecutive* failed reconnects;
// any delivered event resets the budget.
func (c *Client) Watch(ctx context.Context, id string, onEvent func(event string, data []byte)) error {
	failures := 0
	var lastErr error
	for {
		if failures > 0 {
			if failures >= c.cfg.MaxAttempts {
				return fmt.Errorf("client: stream lost after %d reconnect attempts: %w", failures, lastErr)
			}
			d := c.backoff(failures-1, parseLastRetryAfter(lastErr))
			if c.cfg.Logf != nil {
				c.cfg.Logf("stream reconnect %d/%d in %s: %v", failures, c.cfg.MaxAttempts-1, d.Round(time.Millisecond), lastErr)
			}
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return fmt.Errorf("%w (last error: %v)", ctx.Err(), lastErr)
			}
		}
		resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/events", nil)
		if err != nil {
			// do already retried transient failures; what comes back is
			// permanent (bad ID, ctx done) or out of attempts.
			return err
		}
		done, delivered, err := c.scanSSE(resp.Body, onEvent)
		resp.Body.Close()
		if done {
			return nil
		}
		if delivered {
			failures = 0
		}
		failures++
		if err == nil {
			// Clean EOF without a terminal event: the daemon ended the
			// stream early (drain). The job may still be running; resume.
			err = fmt.Errorf("client: event stream ended before job %s was terminal", id)
		}
		lastErr = err
		if ctx.Err() != nil {
			return fmt.Errorf("%w (last error: %v)", ctx.Err(), lastErr)
		}
	}
}

// scanSSE consumes one SSE connection, reporting whether the terminal
// "done" event arrived and whether any event was delivered at all.
func (c *Client) scanSSE(r io.Reader, onEvent func(event string, data []byte)) (done, delivered bool, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			onEvent(event, []byte(strings.TrimPrefix(line, "data: ")))
			delivered = true
			if event == "done" {
				return true, true, nil
			}
		}
	}
	return false, delivered, sc.Err()
}

// Submit posts a job spec (any JSON-marshalable value) and returns the
// daemon's answer. Retries are idempotent: the daemon dedups by content
// fingerprint, so N replays of one spec still yield one execution.
func (c *Client) Submit(ctx context.Context, spec any) (SubmitResponse, error) {
	blob, err := json.Marshal(spec)
	if err != nil {
		return SubmitResponse{}, err
	}
	resp, err := c.do(ctx, http.MethodPost, "/v1/jobs", blob)
	if err != nil {
		return SubmitResponse{}, err
	}
	defer resp.Body.Close()
	var sr SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return SubmitResponse{}, err
	}
	return sr, nil
}

// Wait long-polls until the job is terminal or ctx expires. Each poll
// bounds its server-side wait so a draining daemon releases us; the
// loop (and its retry layer) carries on until a terminal state.
func (c *Client) Wait(ctx context.Context, id string) (Status, error) {
	for {
		resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"?wait=30s", nil)
		if err != nil {
			return Status{}, err
		}
		var st Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return Status{}, err
		}
		if st.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// Result streams a finished job's result in the given format ("json" or
// "csv") to w.
func (c *Client) Result(ctx context.Context, id, format string, w io.Writer) error {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result?format="+format, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = io.Copy(w, resp.Body)
	return err
}

// Cancel cancels a job, reporting whether the daemon actually cancelled
// it (false for already-terminal jobs).
func (c *Client) Cancel(ctx context.Context, id string) (bool, error) {
	resp, err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	var cr struct {
		Canceled bool `json:"canceled"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		return false, err
	}
	return cr.Canceled, nil
}

// GetJSON streams an arbitrary API path's body to w (list, stats) —
// the escape hatch that keeps fisimctl curl-equivalent.
func (c *Client) GetJSON(ctx context.Context, path string, w io.Writer) error {
	resp, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = io.Copy(w, resp.Body)
	return err
}
