package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"colarm/internal/standing"
)

// subscribeRequest is the JSON body of POST /v1/subscriptions: the
// same query as /v1/mine (structured fields or a COLARM-QL statement)
// plus an optional tracked-measure threshold.
type subscribeRequest struct {
	queryBody
	Track *standing.Track `json:"track,omitempty"`
}

// subscriptionJSON describes one subscription resource.
type subscriptionJSON struct {
	ID      string          `json:"id"`
	Dataset string          `json:"dataset"`
	Query   string          `json:"query"` // canonical form
	Track   *standing.Track `json:"track,omitempty"`
	// Events is the subscription's event-stream path.
	Events string `json:"events"`
	// Generation and Version locate the dataset when the response was
	// built (Generation is the engine generation, as on /v1/mine).
	Generation uint64 `json:"generation"`
	Version    uint64 `json:"version"`
}

func (s *Server) subscriptionJSON(sub *standing.Subscription) subscriptionJSON {
	out := subscriptionJSON{
		ID:      sub.ID(),
		Dataset: sub.Dataset(),
		Query:   sub.Query().Canonical(),
		Track:   sub.Track(),
		Events:  "/v1/subscriptions/" + sub.ID() + "/events",
	}
	if eng, err := s.reg.Get(sub.Dataset()); err == nil {
		out.Generation = eng.Generation()
		out.Version = eng.Version()
	}
	return out
}

func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	s.requests["subscriptions"].Inc()
	var req subscribeRequest
	if err := decodeBody(r, maxQueryBody, &req); err != nil {
		s.fail(w, "subscriptions", err)
		return
	}
	eng, q, err := s.resolve(&req.queryBody)
	if err != nil {
		s.fail(w, "subscriptions", err)
		return
	}
	sub, err := s.standing.Create(r.Context(), eng.Dataset().Name(), q, req.Track)
	if err != nil {
		s.fail(w, "subscriptions", err)
		return
	}
	w.Header().Set("Location", "/v1/subscriptions/"+sub.ID())
	s.writeJSON(w, http.StatusCreated, s.subscriptionJSON(sub))
}

func (s *Server) handleSubscriptions(w http.ResponseWriter, r *http.Request) {
	s.requests["subscriptions"].Inc()
	subs := s.standing.List()
	out := make([]subscriptionJSON, 0, len(subs))
	for _, sub := range subs {
		out = append(out, s.subscriptionJSON(sub))
	}
	s.writeJSON(w, http.StatusOK, struct {
		Subscriptions []subscriptionJSON `json:"subscriptions"`
	}{out})
}

func (s *Server) handleSubscriptionGet(w http.ResponseWriter, r *http.Request) {
	s.requests["subscriptions"].Inc()
	sub := s.standing.Get(r.PathValue("id"))
	if sub == nil {
		s.fail(w, "subscriptions", notFoundError{fmt.Errorf("no subscription %q", r.PathValue("id"))})
		return
	}
	s.writeJSON(w, http.StatusOK, s.subscriptionJSON(sub))
}

func (s *Server) handleSubscriptionDelete(w http.ResponseWriter, r *http.Request) {
	s.requests["subscriptions"].Inc()
	if !s.standing.Delete(r.PathValue("id")) {
		s.fail(w, "subscriptions", notFoundError{fmt.Errorf("no subscription %q", r.PathValue("id"))})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleSubscriptionEvents streams a subscription's events, each the
// JSON form of the standing.Event the tracker appended — the manager's
// event type is the wire's, its rules colarm.Rule as on /v1/mine. With a
// "wait" query parameter it long-polls: one JSON response with the
// events past "after" (empty after the wait expires). Otherwise it is
// an SSE stream: each event is written as id/event/data frames, the
// Last-Event-ID header (or "after") resumes a broken connection, and a
// consumer that falls off the bounded buffer receives a terminal
// "evicted" event before the stream closes. A resume position that has
// aged out of the buffer yields a fresh snapshot event (resync), never
// a silent gap.
func (s *Server) handleSubscriptionEvents(w http.ResponseWriter, r *http.Request) {
	s.requests["events"].Inc()
	sub := s.standing.Get(r.PathValue("id"))
	if sub == nil {
		s.fail(w, "events", notFoundError{fmt.Errorf("no subscription %q", r.PathValue("id"))})
		return
	}
	after := uint64(0)
	pos := r.Header.Get("Last-Event-ID")
	if pos == "" {
		pos = r.URL.Query().Get("after")
	}
	if pos != "" {
		v, err := strconv.ParseUint(pos, 10, 64)
		if err != nil {
			s.fail(w, "events", badRequestError{fmt.Errorf("bad resume position %q: %w", pos, err)})
			return
		}
		after = v
	}

	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		s.longPoll(w, sub, after, waitStr)
		return
	}

	fl, ok := w.(http.Flusher)
	if !ok {
		s.fail(w, "events", fmt.Errorf("response writer cannot stream"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream; charset=utf-8")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	ctx := r.Context()
	c := sub.Cursor(after)
	var frame []byte // one event's id/event/data frame, reused
	for {
		hctx, cancel := context.WithTimeout(ctx, s.cfg.SSEHeartbeat)
		evs, err := c.Next(hctx)
		cancel()
		for _, ev := range evs {
			if s.sseDelay > 0 {
				// Test knob: simulate a slow consumer so eviction paths
				// can be exercised deterministically.
				time.Sleep(s.sseDelay)
			}
			frame = append(frame[:0], "id: "...)
			frame = strconv.AppendUint(frame, ev.Seq, 10)
			frame = append(frame, "\nevent: "...)
			frame = append(frame, ev.Type...)
			frame = append(frame, "\ndata: "...)
			var merr error
			if frame, merr = appendEvent(frame, &ev); merr != nil {
				return
			}
			frame = append(frame, "\n\n"...)
			if _, werr := w.Write(frame); werr != nil {
				return
			}
		}
		fl.Flush()
		switch {
		case err == nil:
			continue
		case errors.Is(err, standing.ErrEvicted), errors.Is(err, standing.ErrClosed):
			// Terminal: the evicted event (if any) is already written.
			return
		case errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil:
			// Heartbeat keep-alive comment so intermediaries don't cut
			// an idle stream.
			fmt.Fprint(w, ": heartbeat\n\n")
			fl.Flush()
		default:
			// Client disconnected.
			return
		}
	}
}

// longPoll answers one GET with the buffered events past `after`,
// waiting up to the requested duration for the first one.
func (s *Server) longPoll(w http.ResponseWriter, sub *standing.Subscription, after uint64, waitStr string) {
	wait, err := time.ParseDuration(waitStr)
	if err != nil {
		s.fail(w, "events", badRequestError{fmt.Errorf("bad wait %q: %w", waitStr, err)})
		return
	}
	if wait < 0 {
		wait = 0
	}
	if max := s.cfg.QueryTimeout; max > 0 && wait > max {
		wait = max
	}
	ctx, cancel := context.WithTimeout(context.Background(), wait)
	defer cancel()
	evs, err := sub.Cursor(after).Next(ctx)
	if err != nil && !errors.Is(err, context.DeadlineExceeded) &&
		!errors.Is(err, standing.ErrClosed) && !errors.Is(err, standing.ErrEvicted) {
		s.fail(w, "events", err)
		return
	}
	buf := bufPool.Get().(*bytes.Buffer)
	defer putBuffer(buf)
	b, err := appendEvents(buf.AvailableBuffer(), sub.ID(), evs)
	if err != nil {
		s.writeJSON(w, http.StatusInternalServerError, errorResponse{Error: errorBody{Code: CodeInternal, Message: "encoding response: " + err.Error()}})
		return
	}
	buf.Write(b) // keeps the grown buffer for the pool
	writeBody(w, http.StatusOK, buf.Bytes())
}
