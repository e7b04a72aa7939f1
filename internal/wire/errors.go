package wire

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// ErrorBody is the unified JSON envelope every non-2xx response of the
// serving layer carries (documented in docs/SERVING.md). Error is the
// human-readable message; Code is the stable machine-readable reason —
// clients branch on it, never on the message text. RetryAfterS mirrors
// the Retry-After header on backpressure responses (429/503) so clients
// that only see the body still learn the wait. On sample-push paths
// Accepted reports how many samples the server took before refusing, so
// a client resumes from that offset; elsewhere it is omitted.
type ErrorBody struct {
	Error       string `json:"error"`
	Code        string `json:"code"`
	RetryAfterS int    `json:"retry_after_s,omitempty"`
	Accepted    *int   `json:"accepted,omitempty"`
}

// Stable error codes of the serving layer's envelope. The set may grow;
// clients must treat unknown codes as non-retryable unless the status
// says otherwise.
const (
	// CodeDraining: the server is shutting down; retry against another
	// replica (or the same one after Retry-After).
	CodeDraining = "draining"
	// CodeRateLimit: the per-client rate limit refused the request.
	CodeRateLimit = "rate_limit"
	// CodeOverload: server-wide capacity (the in-flight gate)
	// refused the request.
	CodeOverload = "overload"
	// CodeBackpressure: the session's bounded queue is full; resume from
	// Accepted after Retry-After.
	CodeBackpressure = "backpressure"
	// CodeBodyTooLarge: the request exceeded a body or batch-size cap.
	CodeBodyTooLarge = "body_too_large"
	// CodeDecode: the request payload did not parse (malformed sample,
	// non-finite field, malformed JSON).
	CodeDecode = "decode"
	// CodeBadRequest: a structurally valid request the server cannot
	// serve (invalid session ID, empty batch, wrong media type …).
	CodeBadRequest = "bad_request"
	// CodeCanceled: the request's work was abandoned mid-flight
	// (client disconnect, deadline).
	CodeCanceled = "canceled"
	// CodeNotFound: the addressed resource (a session snapshot on the
	// cluster state endpoint) does not exist. Distinguishes a genuine
	// miss from a store outage, which reports CodeInternal.
	CodeNotFound = "not_found"
	// CodeShardMoved: a forwarded request reached a replica that does
	// not own the session (the replicas' rings disagree mid-change);
	// retry after Retry-After, once the rings agree.
	CodeShardMoved = "shard_moved"
	// CodeInternal: a server-side failure unrelated to the request.
	CodeInternal = "internal"
)

// WriteError answers with the error envelope: a message, a stable code,
// and — when retry > 0 — a Retry-After header in whole seconds mirrored
// into the body. accepted >= 0 adds the push-path resume offset; pass -1
// elsewhere.
func WriteError(w http.ResponseWriter, status int, code, msg string, retry time.Duration, accepted int) {
	body := ErrorBody{Error: msg, Code: code}
	if retry > 0 {
		sec := retrySeconds(retry)
		w.Header().Set("Retry-After", strconv.Itoa(sec))
		body.RetryAfterS = sec
	}
	if accepted >= 0 {
		body.Accepted = &accepted
	}
	WriteJSON(w, status, body)
}

// WriteJSON answers with v encoded as a JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", ContentTypeJSON)
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// retrySeconds rounds a wait up to whole seconds (the header's unit),
// never advertising zero.
func retrySeconds(d time.Duration) int {
	sec := int((d + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	return sec
}

// RetryWait reads a refusal's promised wait: the Retry-After header
// when present, else the envelope's mirrored copy (a proxy may strip
// the header). now anchors the header's HTTP-date form.
func RetryWait(h http.Header, body ErrorBody, now time.Time) time.Duration {
	if d := parseRetryAfter(h, now); d > 0 {
		return d
	}
	if body.RetryAfterS > 0 {
		return time.Duration(body.RetryAfterS) * time.Second
	}
	return 0
}

// parseRetryAfter reads both RFC 9110 forms of Retry-After: the
// delta-seconds form WriteError emits ("2") and the HTTP-date form
// ("Fri, 07 Aug 2026 12:00:00 GMT") that proxies and load balancers in
// front of the server rewrite or originate. A date at or before now —
// capacity already returned, or clock skew — clamps to 0 rather than
// going negative.
func parseRetryAfter(h http.Header, now time.Time) time.Duration {
	v := strings.TrimSpace(h.Get("Retry-After"))
	if v == "" {
		return 0
	}
	if sec, err := strconv.Atoi(v); err == nil {
		if sec < 0 {
			return 0
		}
		return time.Duration(sec) * time.Second
	}
	at, err := http.ParseTime(v)
	if err != nil {
		return 0
	}
	if d := at.Sub(now); d > 0 {
		return d
	}
	return 0
}
