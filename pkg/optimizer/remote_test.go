package optimizer

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/internal/service"
)

// slowThenFastServers returns two endpoints over one shared service: the
// first delays every response, the second answers immediately. slowCanceled
// counts slow-handler calls that ended because the client went away.
func slowThenFastServers(t *testing.T, delay time.Duration) (slow, fast string, slowHits, fastHits, slowCanceled *atomic.Int64) {
	t.Helper()
	svc := service.New(service.Config{Workers: 2})
	t.Cleanup(svc.Close)
	mux := httpapi.New(httpapi.ServiceEngine(svc), httpapi.Options{}).Mux()

	slowHits, fastHits, slowCanceled = new(atomic.Int64), new(atomic.Int64), new(atomic.Int64)
	slowTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		slowHits.Add(1)
		// net/http watches the connection for a client disconnect (and
		// cancels r.Context()) only once the request body is consumed.
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return
		}
		select {
		case <-time.After(delay):
		case <-r.Context().Done():
			slowCanceled.Add(1)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(slowTS.Close)
	fastTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fastHits.Add(1)
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(fastTS.Close)
	return slowTS.URL, fastTS.URL, slowHits, fastHits, slowCanceled
}

// TestRemoteHedgesPastSlowNode: with a short hedge delay, a slow first
// endpoint is raced by the second, the fast answer wins long before the
// slow node responds, and the losing attempt is cancelled on the server.
func TestRemoteHedgesPastSlowNode(t *testing.T) {
	const delay = 20 * time.Second
	slow, fast, slowHits, fastHits, slowCanceled := slowThenFastServers(t, delay)
	r, err := Remote(RemoteConfig{
		Endpoints:  []string{slow, fast},
		HedgeDelay: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	start := time.Now()
	res, err := r.Optimize(context.Background(), Chain(6, 1))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("hedged request took %v; the slow node was waited on", elapsed)
	}
	if res.Cost <= 0 {
		t.Fatal("no result")
	}
	// Note: the request counter rotation means either endpoint may be hit
	// first; over two calls both must have been contacted at least once
	// and the overall latency stays bounded by the hedge delay.
	if _, err := r.Optimize(context.Background(), Chain(7, 1)); err != nil {
		t.Fatal(err)
	}
	if slowHits.Load() == 0 || fastHits.Load() == 0 {
		t.Fatalf("hedging never contacted both endpoints: slow=%d fast=%d", slowHits.Load(), fastHits.Load())
	}
	// Every slow attempt lost its race, so each must have returned through
	// its request context rather than by sitting out the delay.
	for slowCanceled.Load() < slowHits.Load() {
		if time.Since(start) > delay/4 {
			t.Fatalf("slow handler: %d of %d hedged-away attempts cancelled", slowCanceled.Load(), slowHits.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRemoteFailsOverDeadNode: a refused connection on the first endpoint
// triggers an immediate attempt on the next, well before the hedge delay.
func TestRemoteFailsOverDeadNode(t *testing.T) {
	svc := service.New(service.Config{Workers: 2})
	t.Cleanup(svc.Close)
	live := httptest.NewServer(httpapi.New(httpapi.ServiceEngine(svc), httpapi.Options{}).Mux())
	t.Cleanup(live.Close)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // connection refused from now on

	r, err := Remote(RemoteConfig{
		Endpoints:  []string{deadURL, live.URL},
		HedgeDelay: time.Hour, // failure-driven failover must not wait for it
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Run enough requests that the rotation starts on the dead node too.
	for i := 0; i < 4; i++ {
		start := time.Now()
		res, err := r.Optimize(context.Background(), Chain(5+i, 1))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if res.Cost <= 0 {
			t.Fatalf("request %d: empty result", i)
		}
		if elapsed := time.Since(start); elapsed > 30*time.Second {
			t.Fatalf("request %d took %v despite failure-driven failover", i, elapsed)
		}
	}
}

// TestRemoteTerminalErrorDoesNotRetry: a deterministic rejection (bad SQL
// → 422) is returned immediately instead of being retried on every node.
func TestRemoteTerminalErrorDoesNotRetry(t *testing.T) {
	svc := service.New(service.Config{Workers: 2})
	t.Cleanup(svc.Close)
	var hits atomic.Int64
	mux := httpapi.New(httpapi.ServiceEngine(svc), httpapi.Options{}).Mux()
	counted := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(counted.Close)

	r, err := Remote(RemoteConfig{Endpoints: []string{counted.URL, counted.URL}, HedgeDelay: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// A disconnected graph is rejected deterministically with 422.
	b := NewQueryBuilder()
	b.Relation("a", RelStats{Rows: 10})
	b.Relation("b", RelStats{Rows: 10})
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Optimize(context.Background(), q)
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusUnprocessableEntity {
		t.Fatalf("err = %v, want 422 RemoteError", err)
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("terminal error hit the servers %d times, want 1", got)
	}
}

// TestRemoteAllNodesDown: every endpoint failing yields a joined error,
// not a hang.
func TestRemoteAllNodesDown(t *testing.T) {
	dead1 := httptest.NewServer(http.NotFoundHandler())
	u1 := dead1.URL
	dead1.Close()
	dead2 := httptest.NewServer(http.NotFoundHandler())
	u2 := dead2.URL
	dead2.Close()

	r, err := Remote(RemoteConfig{Endpoints: []string{u1, u2}, HedgeDelay: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := r.Optimize(ctx, Chain(4, 1)); err == nil {
		t.Fatal("all-nodes-down request succeeded")
	}
}

// TestRemoteContextCancellation: cancelling the caller context unblocks
// the driver even while all endpoints hang.
func TestRemoteContextCancellation(t *testing.T) {
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server arms its client-disconnect watcher,
		// then hang until the client goes away.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	t.Cleanup(hang.Close)
	r, err := Remote(RemoteConfig{Endpoints: []string{hang.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = r.Optimize(ctx, Chain(4, 1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("cancellation did not unblock the driver promptly")
	}
}
