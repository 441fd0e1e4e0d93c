package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"secmon/internal/core"
)

// waitQueued polls until n live waiters are queued for admission.
func waitQueued(t *testing.T, a *admission, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		a.mu.Lock()
		q := a.queued
		a.mu.Unlock()
		if q == n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d queued admissions", n)
}

// TestAdmissionWeightedRoundRobin drives the dispatcher directly: with one
// slot and weights {a: 2}, queued waiters a1..a4, b1, b2, c1 must be granted
// in the order a a b c a a b — two consecutive slots for the weight-2 tenant
// per round, one each for the others, FIFO within a tenant, with drained
// tenants leaving the rotation.
func TestAdmissionWeightedRoundRobin(t *testing.T) {
	adm := newAdmission(1, -1, map[string]int{"a": 2})

	// Occupy the only slot so every subsequent admit queues.
	if res, _ := adm.admit(context.Background(), "seed"); res != admitted {
		t.Fatalf("seed admit = %v, want admitted", res)
	}

	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	// Enqueue one at a time so queue (and ring) order is deterministic.
	for i, tenant := range []string{"a", "a", "a", "a", "b", "b", "c"} {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			if res, _ := adm.admit(context.Background(), tenant); res != admitted {
				t.Errorf("admit(%s) = %v, want admitted", tenant, res)
				return
			}
			mu.Lock()
			order = append(order, tenant)
			mu.Unlock()
			adm.release() // hand the slot to the next waiter
		}(tenant)
		waitQueued(t, adm, i+1)
	}

	adm.release() // free the seed slot; the chain dispatches everyone
	wg.Wait()

	want := []string{"a", "a", "b", "c", "a", "a", "b"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("dispatch order = %v, want %v", order, want)
	}
}

// TestAdmissionOverflow fills the admission queue and requires the next
// request to be rejected immediately with 429 and a Retry-After header,
// while the queued requests still complete once the slot frees up.
func TestAdmissionOverflow(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, QueueDepth: 2, CacheSize: -1, DisableCoalescing: true})
	gate := make(chan struct{})
	var solves atomic.Int64
	s.testSolveHook = func(kind string) {
		if solves.Add(1) == 1 {
			<-gate // pin the first solve so the others queue
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sys := testSystem(t, 12, 6)
	post := func(budget float64, done chan<- outcomePair) {
		b := budget
		resp, body := postJSON(t, ts.URL+"/v1/optimize", OptimizeRequest{System: sys, Spec: core.Spec{Budget: &b}})
		if done != nil {
			done <- outcomePair{resp.StatusCode, body}
		}
	}

	first := make(chan outcomePair, 1)
	go post(10, first)
	queued := make(chan outcomePair, 2)
	go post(20, queued)
	go post(30, queued)
	waitQueued(t, s.adm, 2)

	// Queue is at QueueDepth: this one must bounce straight off.
	b := 40.0
	resp, body := postJSON(t, ts.URL+"/v1/optimize", OptimizeRequest{System: sys, Spec: core.Spec{Budget: &b}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d, body %s; want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After header")
	}

	close(gate)
	for i := 0; i < 2; i++ {
		if out := <-queued; out.status != http.StatusOK {
			t.Fatalf("queued request %d: status %d, body %s", i, out.status, out.body)
		}
	}
	if out := <-first; out.status != http.StatusOK {
		t.Fatalf("first request: status %d, body %s", out.status, out.body)
	}
	if st := s.stats.rejected.Load(); st != 1 {
		t.Fatalf("stats rejected = %d, want 1", st)
	}
}

// TestQueuedPastDeadline queues a request behind a pinned solve with a
// deadline too short to ever reach the front, and requires (a) a 408, (b)
// that the dead waiter never consumes a solve slot, and (c) that a later
// request sails through.
func TestQueuedPastDeadline(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, QueueDepth: 8, CacheSize: -1, DisableCoalescing: true})
	gate := make(chan struct{})
	var solves atomic.Int64
	s.testSolveHook = func(kind string) {
		if solves.Add(1) == 1 {
			<-gate
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sys := testSystem(t, 12, 6)
	first := make(chan outcomePair, 1)
	go func() {
		b := 10.0
		resp, body := postJSON(t, ts.URL+"/v1/optimize", OptimizeRequest{System: sys, Spec: core.Spec{Budget: &b}})
		first <- outcomePair{resp.StatusCode, body}
	}()
	// Wait for the first solve to be running (it holds the only slot).
	deadline := time.Now().Add(30 * time.Second)
	for solves.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if solves.Load() == 0 {
		t.Fatal("first solve never started")
	}

	// Second request queues; its 50ms deadline expires long before the slot
	// frees. It must get a 408 without ever reaching the solver.
	b2 := 20.0
	resp, body := postJSON(t, ts.URL+"/v1/optimize",
		OptimizeRequest{System: sys, Spec: core.Spec{Budget: &b2}, DeadlineMillis: 50})
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("queued-past-deadline status = %d, body %s; want 408", resp.StatusCode, body)
	}

	close(gate)
	if out := <-first; out.status != http.StatusOK {
		t.Fatalf("first request: status %d, body %s", out.status, out.body)
	}
	// The expired waiter must not have burned the freed slot: a new request
	// is admitted and solves normally.
	b3 := 30.0
	resp, body = postJSON(t, ts.URL+"/v1/optimize", OptimizeRequest{System: sys, Spec: core.Spec{Budget: &b3}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-timeout request: status %d, body %s; want 200", resp.StatusCode, body)
	}
	if got := solves.Load(); got != 2 {
		t.Fatalf("underlying solves = %d, want 2 (the expired request must not solve)", got)
	}
	if st := s.stats.timeouts.Load(); st != 1 {
		t.Fatalf("stats timeouts = %d, want 1", st)
	}
}
