package serve

import (
	"errors"
	"fmt"
	"net/http"
)

// The service-layer error taxonomy. Every rejection a client can trigger is
// a typed error carrying the fields a caller needs to react (match with
// errors.As), and maps to one HTTP status + stable machine-readable code via
// HTTPStatus/ErrorCode — the same discipline as core.ConfigError, extended to
// the serving surface so tests can assert on fields instead of message text.

// RequestError reports a syntactically or semantically invalid job or graph
// request: malformed JSON, a missing required field, an out-of-range value.
type RequestError struct {
	Field  string // offending field ("body" for envelope-level problems)
	Reason string
}

func (e *RequestError) Error() string {
	return fmt.Sprintf("serve: invalid request: %s %s", e.Field, e.Reason)
}

// UnknownGraphError reports a job submitted against a graph that is not in
// the catalog (never loaded, or already evicted).
type UnknownGraphError struct {
	Graph string
}

func (e *UnknownGraphError) Error() string {
	return fmt.Sprintf("serve: graph %q is not in the catalog", e.Graph)
}

// UnknownAlgoError reports a job naming an algorithm the registry does not
// serve.
type UnknownAlgoError struct {
	Algo string
}

func (e *UnknownAlgoError) Error() string {
	return fmt.Sprintf("serve: unknown algorithm %q", e.Algo)
}

// UnknownJobError reports a status query for a job id the server never
// issued.
type UnknownJobError struct {
	ID string
}

func (e *UnknownJobError) Error() string {
	return fmt.Sprintf("serve: unknown job %q", e.ID)
}

// QueueFullError reports an admission rejection: every execution slot is
// busy and the bounded pending queue is at capacity. Back off and retry.
type QueueFullError struct {
	Depth int // the configured queue bound that was hit
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("serve: job queue full (depth %d)", e.Depth)
}

// QuotaError reports a per-tenant admission rejection: the tenant already
// has its full quota of jobs queued or running.
type QuotaError struct {
	Tenant   string
	Limit    int // configured per-tenant quota
	InFlight int // tenant's queued+running jobs at rejection time
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("serve: tenant %q quota exceeded (%d in flight, limit %d)",
		e.Tenant, e.InFlight, e.Limit)
}

// DuplicateGraphError reports a load request for a name already in the
// catalog.
type DuplicateGraphError struct {
	Graph string
}

func (e *DuplicateGraphError) Error() string {
	return fmt.Sprintf("serve: graph %q is already loaded", e.Graph)
}

// ErrServerClosed is returned for submissions racing or following
// Server.Close.
var ErrServerClosed = errors.New("serve: server closed")

// HTTPStatus maps a service error to its HTTP status code; unknown errors
// are internal.
func HTTPStatus(err error) int {
	status, _ := classify(err)
	return status
}

// ErrorCode returns the stable machine-readable code clients switch on.
func ErrorCode(err error) string {
	_, body := classify(err)
	return body.Code
}

// errorBody is the JSON error envelope: the code plus the typed error's
// fields, flattened so clients (and the admission tests) can assert on them.
type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Field   string `json:"field,omitempty"`
	Reason  string `json:"reason,omitempty"`
	Graph   string `json:"graph,omitempty"`
	Algo    string `json:"algo,omitempty"`
	Job     string `json:"job,omitempty"`
	Tenant  string `json:"tenant,omitempty"`
	Limit   int    `json:"limit,omitempty"`
	Depth   int    `json:"depth,omitempty"`
}

// errorEnvelope builds the JSON body for err.
func errorEnvelope(err error) errorBody {
	_, body := classify(err)
	body.Message = err.Error()
	return body
}

// classify is the one mapping from a service error to its HTTP status and
// envelope (code and typed fields; the message is errorEnvelope's).
func classify(err error) (int, errorBody) {
	var (
		re  *RequestError
		ug  *UnknownGraphError
		ua  *UnknownAlgoError
		uj  *UnknownJobError
		qf  *QueueFullError
		qe  *QuotaError
		dup *DuplicateGraphError
	)
	switch {
	case errors.As(err, &re):
		return http.StatusBadRequest, errorBody{Code: "bad_request", Field: re.Field, Reason: re.Reason}
	case errors.As(err, &ua):
		return http.StatusBadRequest, errorBody{Code: "unknown_algo", Algo: ua.Algo}
	case errors.As(err, &ug):
		return http.StatusNotFound, errorBody{Code: "unknown_graph", Graph: ug.Graph}
	case errors.As(err, &uj):
		return http.StatusNotFound, errorBody{Code: "unknown_job", Job: uj.ID}
	case errors.As(err, &qf):
		return http.StatusTooManyRequests, errorBody{Code: "queue_full", Depth: qf.Depth}
	case errors.As(err, &qe):
		return http.StatusTooManyRequests, errorBody{Code: "quota_exceeded", Tenant: qe.Tenant, Limit: qe.Limit}
	case errors.As(err, &dup):
		return http.StatusConflict, errorBody{Code: "duplicate_graph", Graph: dup.Graph}
	case errors.Is(err, ErrServerClosed):
		return http.StatusServiceUnavailable, errorBody{Code: "server_closed"}
	default:
		return http.StatusInternalServerError, errorBody{Code: "internal"}
	}
}
