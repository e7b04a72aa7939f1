package cluster

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ptrack/internal/store"
	"ptrack/internal/wire"
)

// RemoteStore is a store.Store backed by a peer replica's state
// endpoint: Save is PUT /v1/state/{id}, Load is GET, Delete is DELETE,
// List is GET /v1/state. Session IDs are URL-safe base64 in the path —
// the same encoding the dir store uses for filenames, and for the same
// reason: raw IDs like ".." or "with/slash" are hostile to paths.
// Transient failures (transport errors, unreadable bodies, 5xx) are
// retried through wire's retry loop — a short jittered doubling
// backoff — so a flaky link doesn't turn a checkpoint into a lost
// snapshot; 429 and other 4xx responses are terminal. A refusal's
// Retry-After is not honoured, so a draining peer cannot stall a
// checkpoint for seconds. Safe for concurrent use.
type RemoteStore struct {
	base  string
	hc    *http.Client
	retry wire.Backoff
}

// remoteBackoffMax caps the doubling backoff between attempts; the
// default budget (2 retries from 25 ms) waits at most 50 ms before
// jitter.
const remoteBackoffMax = time.Second

// RemoteOption configures a RemoteStore.
type RemoteOption func(*RemoteStore)

// WithRemoteHTTPClient substitutes the transport (tests inject fault-
// injecting round-trippers; the cluster shares one pooled client).
func WithRemoteHTTPClient(hc *http.Client) RemoteOption {
	return func(r *RemoteStore) {
		if hc != nil {
			r.hc = hc
		}
	}
}

// WithRemoteRetry sets the retry budget: attempts = retries + 1, with
// the backoff doubling from backoff up to 1 s, ±25% jitter. retries < 0
// disables retrying.
func WithRemoteRetry(retries int, backoff time.Duration) RemoteOption {
	return func(r *RemoteStore) {
		r.retry.Retries = max(retries, 0)
		if backoff > 0 {
			r.retry.Base = backoff
		}
	}
}

// NewRemoteStore opens a remote store against a peer's base URL
// (scheme://host:port, no trailing slash required).
func NewRemoteStore(baseURL string, opts ...RemoteOption) (*RemoteStore, error) {
	baseURL = strings.TrimRight(baseURL, "/")
	if baseURL == "" {
		return nil, errors.New("cluster: empty remote store URL")
	}
	if !strings.Contains(baseURL, "://") {
		return nil, fmt.Errorf("cluster: remote store URL %q has no scheme", baseURL)
	}
	r := &RemoteStore{
		base:  baseURL,
		hc:    &http.Client{Timeout: 10 * time.Second},
		retry: wire.Backoff{Retries: 2, Base: 25 * time.Millisecond, Max: remoteBackoffMax},
	}
	for _, o := range opts {
		o(r)
	}
	return r, nil
}

func (r *RemoteStore) url(session string) string {
	return r.base + "/v1/state/" + base64.RawURLEncoding.EncodeToString([]byte(session))
}

// Save implements Store.
func (r *RemoteStore) Save(session string, blob []byte) error {
	status, body, err := r.roundTrip(http.MethodPut, r.url(session), blob)
	if err != nil {
		return fmt.Errorf("cluster: save %q: %w", session, err)
	}
	if status/100 != 2 {
		return fmt.Errorf("cluster: save %q: %s", session, describe(status, body))
	}
	return nil
}

// Load implements Store. A 404 carrying the not_found envelope code is
// a genuine miss (ErrNotFound); every other failure is an outage and
// reports as such, so callers can tell "no snapshot" from "store down".
func (r *RemoteStore) Load(session string) ([]byte, error) {
	status, body, err := r.roundTrip(http.MethodGet, r.url(session), nil)
	if err != nil {
		return nil, fmt.Errorf("cluster: load %q: %w", session, err)
	}
	switch {
	case status/100 == 2:
		return body, nil
	case status == http.StatusNotFound && envelopeCode(body) == wire.CodeNotFound:
		return nil, fmt.Errorf("%w: %q", store.ErrNotFound, session)
	default:
		// A bare 404 (no envelope) is a routing misconfiguration — the
		// peer isn't serving the state protocol at this URL — which
		// must not masquerade as "no snapshot".
		return nil, fmt.Errorf("cluster: load %q: %s", session, describe(status, body))
	}
}

// Delete implements Store; deleting a missing snapshot is a no-op.
func (r *RemoteStore) Delete(session string) error {
	status, body, err := r.roundTrip(http.MethodDelete, r.url(session), nil)
	if err != nil {
		return fmt.Errorf("cluster: delete %q: %w", session, err)
	}
	if status/100 != 2 && !(status == http.StatusNotFound && envelopeCode(body) == wire.CodeNotFound) {
		return fmt.Errorf("cluster: delete %q: %s", session, describe(status, body))
	}
	return nil
}

// List implements Store.
func (r *RemoteStore) List() ([]string, error) {
	status, body, err := r.roundTrip(http.MethodGet, r.base+"/v1/state", nil)
	if err != nil {
		return nil, fmt.Errorf("cluster: list: %w", err)
	}
	if status/100 != 2 {
		return nil, fmt.Errorf("cluster: list: %s", describe(status, body))
	}
	var out stateList
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("cluster: list: decoding response: %w", err)
	}
	return out.Sessions, nil
}

// stateList is the JSON body of GET /v1/state.
type stateList struct {
	Sessions []string `json:"sessions"`
}

// roundTrip performs one store operation with the retry budget:
// transport errors, unreadable bodies and 5xx responses are transient
// (the flaky-link case the conformance suite injects), anything else
// returns to the caller for classification.
func (r *RemoteStore) roundTrip(method, url string, body []byte) (status int, data []byte, err error) {
	err = r.retry.Retry(context.Background(), func(n int) (bool, time.Duration, error) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, url, rd)
		if err != nil {
			return false, 0, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/octet-stream")
		}
		// Attempt number travels with the request (observability on the
		// peer side; fault injectors key on it in tests).
		req.Header.Set("X-Ptrack-Attempt", strconv.Itoa(n))
		resp, err := r.hc.Do(req)
		if err != nil {
			return true, 0, err
		}
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return true, 0, fmt.Errorf("reading response: %w", err)
		}
		if resp.StatusCode >= 500 {
			return true, 0, errors.New(describe(resp.StatusCode, data))
		}
		status = resp.StatusCode
		return false, 0, nil
	})
	if err != nil {
		return 0, nil, err
	}
	return status, data, nil
}

// envelopeCode extracts the stable error code from an envelope body,
// or "" when the body is not an envelope.
func envelopeCode(body []byte) string {
	var eb wire.ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		return ""
	}
	return eb.Code
}

// describe renders a non-2xx response compactly, preferring the
// envelope's stable code over raw body bytes.
func describe(status int, body []byte) string {
	var eb wire.ErrorBody
	if err := json.Unmarshal(body, &eb); err == nil && eb.Code != "" {
		return fmt.Sprintf("HTTP %d (%s: %s)", status, eb.Code, eb.Error)
	}
	s := strings.TrimSpace(string(body))
	if len(s) > 120 {
		s = s[:120] + "…"
	}
	if s == "" {
		return fmt.Sprintf("HTTP %d", status)
	}
	return fmt.Sprintf("HTTP %d (%s)", status, s)
}
