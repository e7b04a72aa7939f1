package wire

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
