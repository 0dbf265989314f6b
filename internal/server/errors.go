package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"colarm"
	"colarm/internal/standing"
)

// Machine-readable error codes carried by every non-2xx /v1 response
// in the envelope's error.code field. Clients branch on these, never
// on message text.
const (
	CodeBadRequest          = "bad_request"
	CodeUnknownAttribute    = "unknown_attribute"
	CodeUnknownValue        = "unknown_value"
	CodeBadThreshold        = "bad_threshold"
	CodeUnknownPlan         = "unknown_plan"
	CodeBadRecordID         = "bad_record_id"
	CodeBadTrack            = "bad_track"
	CodeNotFound            = "not_found"
	CodePayloadTooLarge     = "payload_too_large"
	CodeRebuildInProgress   = "rebuild_in_progress"
	CodeSubscriptionLimit   = "subscription_limit"
	CodeOverloaded          = "overloaded"
	CodeDeadlineExceeded    = "deadline_exceeded"
	CodeClientClosedRequest = "client_closed_request"
	CodeMethodNotAllowed    = "method_not_allowed"
	CodeInternal            = "internal"
)

// errorBody is the structured error object in the /v1 envelope.
type errorBody struct {
	Code    string         `json:"code"`
	Message string         `json:"message"`
	Details map[string]any `json:"details,omitempty"`
}

// errorResponse is the /v1 error envelope: a structured error object
// under error.code / error.message / error.details. The deprecated
// flat legacyError field that rode along during the /v1 redesign's
// migration window has been removed — clients branch on error.code.
type errorResponse struct {
	Error errorBody `json:"error"`
}

// badRequestError and notFoundError wrap errors whose status the
// handler decided at the point of failure.
type badRequestError struct{ err error }

func (e badRequestError) Error() string { return e.err.Error() }
func (e badRequestError) Unwrap() error { return e.err }

type notFoundError struct{ err error }

func (e notFoundError) Error() string { return e.err.Error() }
func (e notFoundError) Unwrap() error { return e.err }

// tooLargeError marks a request body over its route's size limit, the
// error's value — 413.
type tooLargeError int64

func (e tooLargeError) Error() string {
	return fmt.Sprintf("request body exceeds the %d-byte limit", int64(e))
}

// conflictError marks an ingest racing a background rebuild — 409,
// with the dataset in the error details.
type conflictError struct {
	err     error
	dataset string
}

func (e conflictError) Error() string { return e.err.Error() }
func (e conflictError) Unwrap() error { return e.err }

// detailedError lets an error carry structured fields into the
// envelope's error.details.
type detailedError interface{ errorDetails() map[string]any }

func (e conflictError) errorDetails() map[string]any {
	return map[string]any{"dataset": e.dataset}
}

// classify maps an error to its HTTP status and machine-readable code.
// The facade's typed validation errors (and explicitly tagged parse
// failures) are the caller's fault — 400, with the sentinel's specific
// code when one is in the chain; an unknown dataset or subscription is
// 404; an ingest racing a rebuild is 409; an oversize body is 413;
// admission or subscription overflow is 429; a query that outran its
// deadline is 504; everything else is an engine fault — 500/internal.
func classify(err error) (status int, code string) {
	var bad badRequestError
	var missing notFoundError
	var conflict conflictError
	var tooLarge tooLargeError
	switch {
	case errors.Is(err, colarm.ErrUnknownAttribute):
		return http.StatusBadRequest, CodeUnknownAttribute
	case errors.Is(err, colarm.ErrUnknownValue):
		return http.StatusBadRequest, CodeUnknownValue
	case errors.Is(err, colarm.ErrBadThreshold):
		return http.StatusBadRequest, CodeBadThreshold
	case errors.Is(err, colarm.ErrUnknownPlan):
		return http.StatusBadRequest, CodeUnknownPlan
	case errors.Is(err, colarm.ErrBadRecordID):
		return http.StatusBadRequest, CodeBadRecordID
	case errors.Is(err, standing.ErrBadTrack):
		return http.StatusBadRequest, CodeBadTrack
	case errors.As(err, &bad):
		return http.StatusBadRequest, CodeBadRequest
	case errors.Is(err, standing.ErrNoDataset), errors.As(err, &missing):
		return http.StatusNotFound, CodeNotFound
	case errors.As(err, &conflict):
		return http.StatusConflict, CodeRebuildInProgress
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge, CodePayloadTooLarge
	case errors.Is(err, standing.ErrLimit):
		return http.StatusTooManyRequests, CodeSubscriptionLimit
	case errors.Is(err, errOverloaded):
		return http.StatusTooManyRequests, CodeOverloaded
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, CodeDeadlineExceeded
	case errors.Is(err, context.Canceled):
		// The client went away; 499 is the de-facto (nginx) code for
		// "client closed request" — nobody reads it, but the access log
		// does.
		return 499, CodeClientClosedRequest
	default:
		return http.StatusInternalServerError, CodeInternal
	}
}

// fail writes the /v1 error envelope for err and counts it against the
// endpoint's error metric.
func (s *Server) fail(w http.ResponseWriter, endpoint string, err error) {
	s.errors[endpoint].Inc()
	status, code := classify(err)
	body := errorBody{Code: code, Message: err.Error()}
	var det detailedError
	if errors.As(err, &det) {
		body.Details = det.errorDetails()
	}
	s.writeJSON(w, status, errorResponse{Error: body})
}
