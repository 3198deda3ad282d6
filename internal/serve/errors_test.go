package serve

import (
	"errors"
	"fmt"
	"net/http"
	"testing"
)

// TestClassify pins the status, code and envelope fields of every service
// error, wrapped as a caller would see it, and of an unknown error.
func TestClassify(t *testing.T) {
	cases := []struct {
		err    error
		status int
		body   errorBody
	}{
		{&RequestError{Field: "algo", Reason: "is required"}, http.StatusBadRequest,
			errorBody{Code: "bad_request", Field: "algo", Reason: "is required"}},
		{&UnknownAlgoError{Algo: "x"}, http.StatusBadRequest, errorBody{Code: "unknown_algo", Algo: "x"}},
		{&UnknownGraphError{Graph: "g"}, http.StatusNotFound, errorBody{Code: "unknown_graph", Graph: "g"}},
		{&UnknownJobError{ID: "j1"}, http.StatusNotFound, errorBody{Code: "unknown_job", Job: "j1"}},
		{&QueueFullError{Depth: 4}, http.StatusTooManyRequests, errorBody{Code: "queue_full", Depth: 4}},
		{&QuotaError{Tenant: "t", Limit: 2, InFlight: 2}, http.StatusTooManyRequests,
			errorBody{Code: "quota_exceeded", Tenant: "t", Limit: 2}},
		{&DuplicateGraphError{Graph: "g"}, http.StatusConflict, errorBody{Code: "duplicate_graph", Graph: "g"}},
		{ErrServerClosed, http.StatusServiceUnavailable, errorBody{Code: "server_closed"}},
		{errors.New("boom"), http.StatusInternalServerError, errorBody{Code: "internal"}},
	}
	for _, c := range cases {
		err := fmt.Errorf("submit: %w", c.err)
		c.body.Message = err.Error()
		if got := HTTPStatus(err); got != c.status {
			t.Errorf("HTTPStatus(%v) = %d, want %d", err, got, c.status)
		}
		if got := ErrorCode(err); got != c.body.Code {
			t.Errorf("ErrorCode(%v) = %q, want %q", err, got, c.body.Code)
		}
		if got := errorEnvelope(err); got != c.body {
			t.Errorf("errorEnvelope(%v) = %+v, want %+v", err, got, c.body)
		}
	}
}
