package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"secmon/internal/core"
)

func jsonDecode(resp *http.Response, into any) error {
	return json.NewDecoder(resp.Body).Decode(into)
}

// TestCoalesceSingleSolve floods the server with identical requests and
// requires that exactly one underlying solve runs, every response is
// bit-identical, and the followers are answered from the leader's flight.
// The response cache is disabled, so any request that failed to coalesce
// would be forced to run (and be counted as) its own solve.
func TestCoalesceSingleSolve(t *testing.T) {
	const clients = 100

	s := New(Config{CacheSize: -1})
	var solves atomic.Int64
	gate := make(chan struct{})
	s.testSolveHook = func(kind string) {
		solves.Add(1)
		<-gate // hold the leader's solve until every client has joined
	}
	joined := make(chan struct{}, clients)
	s.testJoinHook = func(leader bool) { joined <- struct{}{} }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sys := testSystem(t, 12, 6)
	budget := 20.0
	req := OptimizeRequest{System: sys, Spec: core.Spec{Budget: &budget}}

	type outcome struct {
		status int
		cache  string
		body   []byte
	}
	results := make([]outcome, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/optimize", req)
			results[i] = outcome{resp.StatusCode, resp.Header.Get(cacheHeader), body}
		}(i)
	}
	for i := 0; i < clients; i++ {
		select {
		case <-joined:
		case <-time.After(30 * time.Second):
			t.Fatalf("only %d/%d requests joined the flight", i, clients)
		}
	}
	close(gate)
	wg.Wait()

	if got := solves.Load(); got != 1 {
		t.Fatalf("underlying solves = %d, want exactly 1", got)
	}
	misses, coalesced := 0, 0
	for i, r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("client %d: status %d, body %s", i, r.status, r.body)
		}
		if !bytes.Equal(r.body, results[0].body) {
			t.Fatalf("client %d: body differs from client 0:\n%s\nvs\n%s", i, r.body, results[0].body)
		}
		switch r.cache {
		case "miss":
			misses++
		case "coalesced":
			coalesced++
		default:
			t.Fatalf("client %d: unexpected %s header %q", i, cacheHeader, r.cache)
		}
	}
	if misses != 1 || coalesced != clients-1 {
		t.Fatalf("got %d miss / %d coalesced, want 1 / %d", misses, coalesced, clients-1)
	}
	out := decodeOptimize(t, results[0].body)
	if out.Result == nil || !out.Result.Proven {
		t.Fatalf("coalesced result not proven: %+v", out.Result)
	}
}

// TestCoalesceFollowerDeadline pins the contract that a follower's shorter
// deadline bounds only its own wait, never the leader's solve: the follower
// times out with 408 while the blocked leader still completes with a full
// 200.
func TestCoalesceFollowerDeadline(t *testing.T) {
	s := New(Config{CacheSize: -1})
	gate := make(chan struct{})
	s.testSolveHook = func(kind string) { <-gate }
	joined := make(chan bool, 4)
	s.testJoinHook = func(leader bool) { joined <- leader }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sys := testSystem(t, 12, 6)
	budget := 20.0

	leaderDone := make(chan outcomePair, 1)
	go func() {
		resp, body := postJSON(t, ts.URL+"/v1/optimize",
			OptimizeRequest{System: sys, Spec: core.Spec{Budget: &budget}, DeadlineMillis: 60_000})
		leaderDone <- outcomePair{resp.StatusCode, body}
	}()
	if leader := <-joined; !leader {
		t.Fatal("first request did not become flight leader")
	}

	// Follower with a 50ms deadline: must 408 without touching the leader.
	resp, body := postJSON(t, ts.URL+"/v1/optimize",
		OptimizeRequest{System: sys, Spec: core.Spec{Budget: &budget}, DeadlineMillis: 50})
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("follower status = %d, body %s; want 408", resp.StatusCode, body)
	}

	close(gate)
	lead := <-leaderDone
	if lead.status != http.StatusOK {
		t.Fatalf("leader status = %d, body %s; want 200", lead.status, lead.body)
	}
	out := decodeOptimize(t, lead.body)
	if out.Result == nil || !out.Result.Proven {
		t.Fatalf("leader result not proven after follower timeout: %+v", out.Result)
	}
}

type outcomePair struct {
	status int
	body   []byte
}

// TestSweepPartialPointCache reruns a sweep over a grid that overlaps an
// earlier one and requires (a) the overlap to be served from the per-point
// cache ("partial" response), and (b) the assembled response to be
// bit-identical to the same request solved fresh on a second server.
func TestSweepPartialPointCache(t *testing.T) {
	sys := testSystem(t, 12, 6)
	grid1 := []float64{10, 20, 30}
	grid2 := []float64{10, 15, 20, 25, 30}

	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{System: sys, Budgets: grid1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first sweep: status %d, body %s", resp.StatusCode, body)
	}
	if h := resp.Header.Get(cacheHeader); h != "miss" {
		t.Fatalf("first sweep %s = %q, want miss", cacheHeader, h)
	}

	resp2, body2 := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{System: sys, Budgets: grid2})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second sweep: status %d, body %s", resp2.StatusCode, body2)
	}
	if h := resp2.Header.Get(cacheHeader); h != "partial" {
		t.Fatalf("second sweep %s = %q, want partial", cacheHeader, h)
	}
	if hits := s.stats.sweepPointHits.Load(); hits == 0 {
		t.Fatal("second sweep reported no per-point cache hits")
	}

	fresh := New(Config{})
	tsFresh := httptest.NewServer(fresh.Handler())
	defer tsFresh.Close()
	respF, bodyF := postJSON(t, tsFresh.URL+"/v1/sweep", SweepRequest{System: sys, Budgets: grid2})
	if respF.StatusCode != http.StatusOK {
		t.Fatalf("fresh sweep: status %d, body %s", respF.StatusCode, bodyF)
	}
	if got, want := normalizeSweepBody(t, body2), normalizeSweepBody(t, bodyF); !bytes.Equal(got, want) {
		t.Fatalf("partial-assembled sweep differs from fresh solve:\n%s\nvs\n%s", got, want)
	}
}

// normalizeSweepBody zeroes the wall-clock elapsed fields, the only
// legitimately run-dependent part of a sweep response, so bodies can be
// compared bit-for-bit.
func normalizeSweepBody(t *testing.T, body []byte) []byte {
	t.Helper()
	var out SweepResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decode sweep response %s: %v", body, err)
	}
	for _, p := range out.Points {
		if p.Optimal != nil {
			p.Optimal.Stats.Elapsed = 0
		}
		if p.Greedy != nil {
			p.Greedy.Stats.Elapsed = 0
		}
		if p.Random != nil {
			p.Random.Stats.Elapsed = 0
		}
	}
	norm, err := json.Marshal(out)
	if err != nil {
		t.Fatalf("re-marshal sweep response: %v", err)
	}
	return norm
}

// TestStatsEndpoint checks that /v1/stats reports the serving counters.
func TestStatsEndpoint(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sys := testSystem(t, 12, 6)
	budget := 20.0
	postJSON(t, ts.URL+"/v1/optimize", OptimizeRequest{System: sys, Spec: core.Spec{Budget: &budget}, Tenant: "acme"})
	postJSON(t, ts.URL+"/v1/optimize", OptimizeRequest{System: sys, Spec: core.Spec{Budget: &budget}, Tenant: "acme"})

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET /v1/stats: %v", err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := jsonDecode(resp, &st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if st.Solves != 1 {
		t.Fatalf("stats solves = %d, want 1 (second request is a cache hit)", st.Solves)
	}
	if st.CacheHits != 1 {
		t.Fatalf("stats cacheHits = %d, want 1", st.CacheHits)
	}
	if st.Tenants["acme"] != 1 {
		t.Fatalf("stats tenants[acme] = %d, want 1; tenants %v", st.Tenants["acme"], st.Tenants)
	}
}

// TestCoalescedLeaderRechecksCache forces the duplicate-miss interleaving on
// each coalesced endpoint: request B misses the cache, request A then solves,
// stores its result and leaves the flight group, and only then does B join —
// as the leader of a fresh flight, which the join hook confirms. B must
// answer from the cache A filled instead of solving the request again.
func TestCoalescedLeaderRechecksCache(t *testing.T) {
	sys := testSystem(t, 12, 6)
	budget := 20.0
	for _, c := range []struct {
		kind, path string
		req        any
	}{
		{"optimize", "/v1/optimize", &OptimizeRequest{System: sys, Spec: core.Spec{Budget: &budget}}},
		// The handler keys a sweep after resolving its seed and solver
		// worker defaults; spelling them out gives the test that key.
		{"sweep", "/v1/sweep", &SweepRequest{System: sys, Steps: 3, Seed: 1, SolverWorkers: 1}},
		{"simulate", "/v1/simulate", &SimulateRequest{All: true, Seed: 7, Trials: 200, Warmup: 20}},
	} {
		s := New(Config{})
		joins := make(chan bool, 4)
		s.testJoinHook = func(leader bool) { joins <- leader }
		ts := httptest.NewServer(s.Handler())
		key, err := requestKey(c.kind, c.req)
		if err != nil {
			t.Fatal(err)
		}

		// B: the handler's cache check misses.
		if _, ok := s.cache.get(key); ok {
			t.Fatalf("%s: cache already holds the request", c.kind)
		}
		// A: a complete solve that stores its result and finishes its flight.
		resp, body := postJSON(t, ts.URL+c.path, c.req)
		ts.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get(cacheHeader) != "miss" {
			t.Fatalf("%s: first request status %d, cache %q; want 200 miss",
				c.kind, resp.StatusCode, resp.Header.Get(cacheHeader))
		}
		// B: joins only now, and so leads a new flight.
		rec := httptest.NewRecorder()
		s.coalesced(rec, context.Background(), key, func() reply {
			t.Errorf("%s: the new flight leader solved the request again", c.kind)
			return errReply(http.StatusInternalServerError, errors.New("duplicate solve"))
		})
		if len(joins) != 2 || !<-joins || !<-joins {
			t.Fatalf("%s: want two joins, each leading its own flight", c.kind)
		}
		if rec.Code != http.StatusOK || rec.Header().Get(cacheHeader) != "hit" ||
			!bytes.Equal(rec.Body.Bytes(), body) {
			t.Fatalf("%s: second request status %d, cache %q, same body %v; want 200 hit with A's body",
				c.kind, rec.Code, rec.Header().Get(cacheHeader), bytes.Equal(rec.Body.Bytes(), body))
		}
	}
}
