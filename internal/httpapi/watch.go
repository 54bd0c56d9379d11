package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/standing"
)

// maxLongPollWait caps the ?wait= hold time of the long-poll fallback
// so a forgotten client cannot pin a handler goroutine forever.
const maxLongPollWait = 30 * time.Second

// sseHeartbeat is how often an idle SSE stream emits a comment line so
// intermediaries do not reap the connection.
const sseHeartbeat = 15 * time.Second

// WatchRequest is the body of POST /api/v1/watch.
type WatchRequest struct {
	Query    string `json:"query"`
	Filter   string `json:"filter,omitempty"`
	Strategy string `json:"strategy,omitempty"`
}

// WatchInfo describes one subscription in list/create responses.
type WatchInfo struct {
	ID       string `json:"id"`
	Query    string `json:"query"`
	Filter   string `json:"filter,omitempty"`
	Strategy string `json:"strategy"`
	Seq      uint64 `json:"seq"`
	Matches  int    `json:"matches"`
	Created  string `json:"created"`
}

func watchInfo(sub *standing.Subscription) WatchInfo {
	return WatchInfo{
		ID:       sub.ID(),
		Query:    sub.Keywords(),
		Filter:   sub.Filter(),
		Strategy: sub.Strategy(),
		Seq:      sub.Seq(),
		Matches:  sub.Matches(),
		Created:  sub.Created().UTC().Format(time.RFC3339),
	}
}

// wantsSSE reports whether the client asked for a Server-Sent Events
// stream.
func wantsSSE(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// streamError writes an error in the flavor the client is consuming:
// the standard v1 envelope as a terminal SSE `error` event on streams,
// plain JSON otherwise — one error shape across the whole surface.
func (s *Server) streamError(w http.ResponseWriter, r *http.Request, status int, code string, err error) {
	if !wantsSSE(r) {
		s.error(w, status, code, err)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(status)
	writeSSEError(w, code, err.Error(), w.Header().Get(RequestIDHeader))
}

// writeSSEError emits the uniform error envelope as one SSE event.
func writeSSEError(w http.ResponseWriter, code, message, requestID string) {
	data, _ := json.Marshal(ErrorEnvelope{Error: ErrorBody{Code: code, Message: message, RequestID: requestID}})
	fmt.Fprintf(w, "event: error\ndata: %s\n\n", data)
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

// handleWatchCreate serves POST /api/v1/watch: compile the standing
// query, materialize its answer set, and answer 201 with the
// subscription resource (id + seq) plus the snapshot, so a client can
// render immediately and stream deltas from seq.
func (s *Server) handleWatchCreate(w http.ResponseWriter, r *http.Request) {
	var req WatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	if err := dec.Decode(&req); err != nil {
		s.error(w, http.StatusBadRequest, "bad_request", fmt.Errorf("bad JSON body: %w", err))
		return
	}
	if req.Query == "" {
		s.error(w, http.StatusBadRequest, "bad_request", errors.New("need query"))
		return
	}
	opts, stratName, err := parseStrategy(req.Strategy)
	if err != nil {
		s.error(w, http.StatusBadRequest, "bad_request", err)
		return
	}
	sub, err := s.reg.Register(req.Query, req.Filter, opts, stratName)
	switch {
	case errors.Is(err, standing.ErrTooManySubscriptions):
		w.Header().Set("Retry-After", "1")
		s.error(w, http.StatusTooManyRequests, "subscription_limit", err)
		return
	case err != nil:
		s.error(w, http.StatusBadRequest, "bad_request", err)
		return
	}
	hits := sub.Snapshot()
	writeJSON(w, http.StatusCreated, map[string]any{
		"id":       sub.ID(),
		"seq":      sub.Seq(),
		"strategy": sub.Strategy(),
		"matches":  len(hits),
		"hits":     hits,
	})
}

// handleWatchList serves GET /api/v1/watch.
func (s *Server) handleWatchList(w http.ResponseWriter, _ *http.Request) {
	subs := s.reg.List()
	out := make([]WatchInfo, 0, len(subs))
	for _, sub := range subs {
		out = append(out, watchInfo(sub))
	}
	writeJSON(w, http.StatusOK, map[string]any{"subscriptions": out})
}

// handleWatchDelete serves DELETE /api/v1/watch/{id}.
func (s *Server) handleWatchDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.reg.Cancel(id) {
		s.error(w, http.StatusNotFound, "not_found", fmt.Errorf("no subscription %q", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"canceled": id})
}

// handleWatchGet serves GET /api/v1/watch/{id}: a resumable SSE stream
// when the client accepts text/event-stream, otherwise a long-poll
// JSON fallback. Both resume from ?since=seq; a resume point that has
// fallen off the bounded event ring yields a reset event carrying the
// full snapshot (and, on SSE, ends the stream so the client reconnects
// from the reset's seq).
func (s *Server) handleWatchGet(w http.ResponseWriter, r *http.Request) {
	sub, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		s.streamError(w, r, http.StatusNotFound, "not_found", fmt.Errorf("no subscription %q", r.PathValue("id")))
		return
	}
	since := uint64(0)
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			s.streamError(w, r, http.StatusBadRequest, "bad_request", fmt.Errorf("bad since %q", v))
			return
		}
		since = n
	}
	if wantsSSE(r) {
		s.serveSSE(w, r, sub, since)
		return
	}
	s.serveLongPoll(w, r, sub, since)
}

// serveLongPoll answers one GET with the events past since — holding
// the request up to ?wait= when none are pending — or the materialized
// snapshot with ?snapshot=1.
func (s *Server) serveLongPoll(w http.ResponseWriter, r *http.Request, sub *standing.Subscription, since uint64) {
	qs := r.URL.Query()
	if qs.Get("snapshot") == "1" {
		hits := sub.Snapshot()
		writeJSON(w, http.StatusOK, map[string]any{
			"id": sub.ID(), "seq": sub.Seq(), "matches": len(hits), "hits": hits,
		})
		return
	}
	var wait time.Duration
	if v := qs.Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			s.error(w, http.StatusBadRequest, "bad_request", fmt.Errorf("bad wait %q (want a duration like 20s)", v))
			return
		}
		wait = min(d, maxLongPollWait)
	}
	events, seq, err := sub.EventsSince(since)
	if len(events) == 0 && err == nil && wait > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), wait)
		events, seq, err = sub.Wait(ctx, since)
		cancel()
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			err = nil // hold expired: answer with what we have (nothing)
		}
	}
	switch {
	case errors.Is(err, standing.ErrTooOld):
		// The ring no longer reaches back to since: re-sync with a
		// synthetic reset instead of a gap the client cannot detect.
		reset := sub.SyntheticReset()
		writeJSON(w, http.StatusOK, map[string]any{
			"id": sub.ID(), "seq": reset.Seq, "events": []standing.Event{reset},
		})
		return
	case errors.Is(err, standing.ErrCanceled):
		s.error(w, http.StatusGone, "canceled", errors.New("subscription canceled"))
		return
	case err != nil:
		s.error(w, http.StatusInternalServerError, "internal", err)
		return
	}
	if events == nil {
		events = []standing.Event{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": sub.ID(), "seq": seq, "events": events})
}

// serveSSE streams the subscription over Server-Sent Events: a hello
// event naming the resume point, then one named event per delta/reset,
// each with its sequence number as the SSE id (so EventSource resumes
// natively). A consumer that falls behind the bounded ring gets one
// reset event and the stream ends — backpressure by reconnection,
// never by blocking ingest. Errors use the uniform envelope as a
// terminal `error` event.
func (s *Server) serveSSE(w http.ResponseWriter, r *http.Request, sub *standing.Subscription, since uint64) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.error(w, http.StatusInternalServerError, "internal", errors.New("response writer does not support streaming"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "event: hello\nid: %d\ndata: {\"id\":%q,\"seq\":%d}\n\n", sub.Seq(), sub.ID(), sub.Seq())
	flusher.Flush()
	heartbeat := time.NewTicker(sseHeartbeat)
	defer heartbeat.Stop()
	for {
		// Take the wakeup channel before draining so an append between
		// the drain and the select cannot be missed.
		wake := sub.NotifyCh()
		events, seq, err := sub.EventsSince(since)
		switch {
		case errors.Is(err, standing.ErrTooOld):
			// Slow consumer: the ring advanced past the resume point.
			// Re-sync with one reset and drop the connection; the
			// client reconnects with since = the reset's seq.
			writeSSEEvent(w, sub.SyntheticReset())
			flusher.Flush()
			return
		case errors.Is(err, standing.ErrCanceled):
			writeSSEError(w, "canceled", "subscription canceled", w.Header().Get(RequestIDHeader))
			return
		case err != nil:
			writeSSEError(w, "internal", err.Error(), w.Header().Get(RequestIDHeader))
			return
		}
		for _, ev := range events {
			writeSSEEvent(w, ev)
		}
		if len(events) > 0 {
			since = seq
			flusher.Flush()
		}
		select {
		case <-wake:
		case <-heartbeat.C:
			fmt.Fprint(w, ": ping\n\n")
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSEEvent renders one standing event as an SSE frame: the event
// name is the delta/reset type, the SSE id is the sequence number.
func writeSSEEvent(w http.ResponseWriter, ev standing.Event) {
	data, _ := json.Marshal(ev)
	fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", ev.Type, ev.Seq, data)
}
