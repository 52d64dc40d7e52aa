package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"paradigms/internal/proto"
	"paradigms/internal/server"
)

// TestRetryErrorFloorsBackoff: a 429 whose body lacks (or zeroes) the
// millisecond estimate — a legacy server with a sub-millisecond
// suggestion — must still decode to a positive RetryAfter, so retry
// loops sleeping on it cannot busy-wait.
func TestRetryErrorFloorsBackoff(t *testing.T) {
	bodies := map[string]string{
		"omitted": `{"error":"queue full","code":"overloaded","tenant":"t","queued":2}`,
		"zero":    `{"error":"queue full","code":"overloaded","tenant":"t","queued":2,"retry_after_ms":0}`,
		"normal":  `{"error":"queue full","code":"overloaded","tenant":"t","queued":2,"retry_after_ms":40}`,
	}
	wants := map[string]time.Duration{
		"omitted": time.Millisecond,
		"zero":    time.Millisecond,
		"normal":  40 * time.Millisecond,
	}
	for name, body := range bodies {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusTooManyRequests)
				w.Write([]byte(body + "\n"))
			}))
			defer ts.Close()
			c := New(ts.URL, "t")
			_, err := c.Query(context.Background(), "typer", "select 1")
			var re *RetryError
			if !errors.As(err, &re) {
				t.Fatalf("err = %v, want *RetryError", err)
			}
			if re.RetryAfter != wants[name] {
				t.Errorf("RetryAfter = %v, want %v", re.RetryAfter, wants[name])
			}
		})
	}
}

// TestOversizedRequestIsServerError: a request body past the server's
// limit surfaces as a *ServerError carrying HTTP 413 and the too_large
// code, not as a transport failure.
func TestOversizedRequestIsServerError(t *testing.T) {
	svc := server.New(server.Config{
		WorkerBudget:  1,
		MaxConcurrent: 1,
		Exec: func(ctx context.Context, engine, query string, workers int) (any, error) {
			return nil, fmt.Errorf("stub: never reached")
		},
	})
	defer svc.Close()
	ts := httptest.NewServer(proto.NewServer(svc, nil).Handler())
	defer ts.Close()

	_, err := New(ts.URL, "t").Query(context.Background(), "typer", strings.Repeat("x", proto.MaxRequestBytes))
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *ServerError", err)
	}
	if se.Status != http.StatusRequestEntityTooLarge || se.Code != proto.CodeTooLarge {
		t.Errorf("got HTTP %d code %q, want 413 %q", se.Status, se.Code, proto.CodeTooLarge)
	}
}
