// Package httpjson is the one JSON-over-HTTP transport under the result
// store protocol (explore.HTTPStore / StoreServer) and the lease protocol
// (coord.Client / Server). It owns the retry algorithm and the wire hygiene
// both protocols share, so the two cannot drift:
//
//   - every attempt carries its own timeout;
//   - transport errors and 5xx responses retry with doubling backoff, 4xx
//     responses never do — the request itself is wrong;
//   - a non-2xx response surfaces as *StatusError carrying the server's
//     error text, and callers map the statuses of their own vocabulary
//     (404 = store miss, 409 = stale lease) with IsStatus;
//   - bodies are capped in both directions and decoded strictly: unknown
//     fields and trailing content are errors, never guesses.
package httpjson

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Options tune a Client.
type Options struct {
	// Timeout bounds every individual HTTP attempt (default 30s).
	Timeout time.Duration
	// Retries is the number of re-attempts after the first failure of a call
	// (default 3; negative disables retrying). Transport errors and 5xx
	// responses retry; 4xx responses never do.
	Retries int
	// Backoff is the delay before the first retry, doubling per attempt
	// (default 100ms).
	Backoff time.Duration
	// Client overrides the HTTP client (tests); Timeout still applies
	// per-attempt via the request context.
	Client *http.Client
}

// Client issues JSON calls against one base URL.
type Client struct {
	base    string
	hc      *http.Client
	timeout time.Duration
	retries int
	backoff time.Duration
	maxBody int64
}

// Dial prepares a client for a base URL like "http://host:9090"; no request
// is issued until the first call. maxBody caps every response body read.
func Dial(baseURL string, maxBody int64, opts Options) (*Client, error) {
	if !strings.HasPrefix(baseURL, "http://") && !strings.HasPrefix(baseURL, "https://") {
		return nil, fmt.Errorf("server URL %q must start with http:// or https://", baseURL)
	}
	c := &Client{
		base:    strings.TrimSuffix(baseURL, "/"),
		hc:      opts.Client,
		timeout: opts.Timeout,
		retries: opts.Retries,
		backoff: opts.Backoff,
		maxBody: maxBody,
	}
	if c.hc == nil {
		c.hc = &http.Client{}
	}
	if c.timeout <= 0 {
		c.timeout = 30 * time.Second
	}
	if c.retries == 0 {
		c.retries = 3
	} else if c.retries < 0 {
		c.retries = 0
	}
	if c.backoff <= 0 {
		c.backoff = 100 * time.Millisecond
	}
	return c, nil
}

// StatusError is a non-2xx response: the status code and the (truncated)
// error text the server sent with it.
type StatusError struct {
	Code int
	Body string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("http %d: %s", e.Code, strings.TrimSpace(e.Body))
}

// IsStatus reports whether err is (or wraps) a StatusError with that code.
func IsStatus(err error, code int) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Code == code
}

// Do runs one JSON round trip with per-attempt timeout and retry/backoff.
// A nil body sends none; a nil out decodes nothing. The error names the call
// and wraps the last attempt's failure.
func (c *Client) Do(method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return fmt.Errorf("encoding %s %s: %w", method, path, err)
		}
	}
	var err error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			time.Sleep(c.backoff << (attempt - 1))
		}
		if err = c.once(method, path, payload, out); err == nil {
			return nil
		}
		var se *StatusError
		if errors.As(err, &se) && se.Code >= 400 && se.Code < 500 {
			break // the request is wrong; retrying cannot fix it
		}
	}
	return fmt.Errorf("%s %s%s: %w", method, c.base, path, err)
}

func (c *Client) once(method, path string, payload []byte, out any) error {
	ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
	defer cancel()
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	// Drain what the decoder left so the connection returns to the pool.
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, c.maxBody))
		_ = resp.Body.Close()
	}()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return &StatusError{Code: resp.StatusCode, Body: string(b)}
	}
	if out == nil {
		return nil
	}
	return DecodeStrict(io.LimitReader(resp.Body, c.maxBody), out)
}

// Write sends v as a JSON response body.
func Write(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v) // a failed write means the client is gone
}

// Decode strictly decodes a request body of at most maxBody bytes into v.
// An oversized body is an error, not a silent truncation: MaxBytesReader
// stops reading at the cap and closes the connection after the reply.
func Decode(w http.ResponseWriter, r *http.Request, maxBody int64, v any) error {
	return DecodeStrict(http.MaxBytesReader(w, r.Body, maxBody), v)
}

// DecodeStrict reads exactly one JSON value into v: unknown fields and
// trailing content are rejected, matching the store's degrade-don't-guess
// posture. Every strict JSON input — HTTP bodies, machine descriptions,
// calibrations, energy profiles — goes through it.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// Token rather than More: More reports no more content before a stray
	// '}' or ']', and it hides a read error past the value (the body cap
	// tripping on trailing bytes).
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing content after the JSON value")
	}
	return nil
}
