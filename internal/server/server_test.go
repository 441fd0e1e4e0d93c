package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"secmon/internal/core"
	"secmon/internal/model"
	"secmon/internal/synth"
)

func testSystem(t *testing.T, monitors, attacks int) *model.System {
	t.Helper()
	sys, err := synth.Generate(synth.Config{Seed: 11, Monitors: monitors, Attacks: attacks})
	if err != nil {
		t.Fatalf("synth.Generate: %v", err)
	}
	return sys
}

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, req any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp, out
}

func decodeOptimize(t *testing.T, body []byte) OptimizeResponse {
	t.Helper()
	var out OptimizeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decode response %s: %v", body, err)
	}
	return out
}

func TestOptimizeEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})
	sys := testSystem(t, 12, 6)
	frac := 0.4
	resp, body := postJSON(t, ts.URL+"/v1/optimize",
		OptimizeRequest{System: sys, Spec: core.Spec{BudgetFraction: &frac}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(cacheHeader); got != "miss" {
		t.Errorf("cache header = %q, want miss", got)
	}
	out := decodeOptimize(t, body)
	if out.Result == nil || !out.Result.Proven {
		t.Fatalf("expected a proven result, got %s", body)
	}
	if out.Result.Cost > sys.TotalMonitorCost()*frac+1e-9 {
		t.Errorf("cost %v exceeds budget", out.Result.Cost)
	}
}

func TestOptimizeDefaultSystem(t *testing.T) {
	// Omitting the system selects the built-in case study.
	ts := newTestServer(t, Config{})
	frac := 0.5
	resp, body := postJSON(t, ts.URL+"/v1/optimize", OptimizeRequest{Spec: core.Spec{BudgetFraction: &frac}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if out := decodeOptimize(t, body); len(out.Result.Monitors) == 0 {
		t.Error("case-study optimize returned an empty deployment")
	}
}

func TestOptimizeCache(t *testing.T) {
	ts := newTestServer(t, Config{})
	sys := testSystem(t, 12, 6)
	frac := 0.4
	req := OptimizeRequest{System: sys, Spec: core.Spec{BudgetFraction: &frac}}

	_, first := postJSON(t, ts.URL+"/v1/optimize", req)
	resp, second := postJSON(t, ts.URL+"/v1/optimize", req)
	if got := resp.Header.Get(cacheHeader); got != "hit" {
		t.Errorf("repeat request cache header = %q, want hit", got)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("cached response differs from the original:\n%s\nvs\n%s", first, second)
	}

	// A deadline variant of the same problem still hits: the key excludes
	// the deadline and only deadline-independent results are cached.
	req.DeadlineMillis = 60_000
	resp, _ = postJSON(t, ts.URL+"/v1/optimize", req)
	if got := resp.Header.Get(cacheHeader); got != "hit" {
		t.Errorf("deadline-variant cache header = %q, want hit", got)
	}

	// A different budget misses.
	otherFrac := 0.6
	resp, _ = postJSON(t, ts.URL+"/v1/optimize",
		OptimizeRequest{System: sys, Spec: core.Spec{BudgetFraction: &otherFrac}})
	if got := resp.Header.Get(cacheHeader); got != "miss" {
		t.Errorf("different-budget cache header = %q, want miss", got)
	}
}

func TestOptimizeDeadlineAnytime(t *testing.T) {
	// A tight deadline on a large instance must produce a feasible
	// deployment with anytime metadata, not an error — and it must not be
	// cached, since deadline-truncated results are not deterministic.
	ts := newTestServer(t, Config{})
	sys := testSystem(t, 400, 100)
	frac := 0.3
	req := OptimizeRequest{System: sys, Spec: core.Spec{BudgetFraction: &frac}, DeadlineMillis: 50}
	resp, body := postJSON(t, ts.URL+"/v1/optimize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	out := decodeOptimize(t, body)
	if out.DeadlineMillis != 50 {
		t.Errorf("applied deadline = %dms, want 50", out.DeadlineMillis)
	}
	if len(out.Result.Monitors) == 0 {
		t.Error("deadline solve returned an empty deployment")
	}
	if out.Result.Proven {
		t.Skip("instance solved to optimality before the deadline")
	}
	if out.Result.Status == "" {
		t.Error("unproven result carries no status")
	}
	resp, _ = postJSON(t, ts.URL+"/v1/optimize", req)
	if got := resp.Header.Get(cacheHeader); got != "miss" {
		t.Errorf("unproven result was cached (header %q)", got)
	}
}

func TestOptimizeConcurrent(t *testing.T) {
	// The acceptance bar: >= 8 concurrent optimize requests, race-clean
	// (run under -race in the CI lane), every one answered.
	ts := newTestServer(t, Config{MaxConcurrent: 4})
	sys := testSystem(t, 30, 10)
	const n = 12
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			frac := 0.2 + 0.05*float64(i%5)
			req := OptimizeRequest{System: sys, Spec: core.Spec{BudgetFraction: &frac}}
			body, err := json.Marshal(req)
			if err != nil {
				errs <- err
				return
			}
			resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			out, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("request %d: status %d body %s", i, resp.StatusCode, out)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestOptimizeBadRequests(t *testing.T) {
	ts := newTestServer(t, Config{})
	sys := testSystem(t, 12, 6)

	resp, err := http.Get(ts.URL + "/v1/optimize")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", resp.StatusCode)
	}

	resp2, err := http.Post(ts.URL+"/v1/optimize", "application/json",
		bytes.NewReader([]byte(`{"nope": 1}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown-field status = %d, want 400", resp2.StatusCode)
	}

	resp3, body := postJSON(t, ts.URL+"/v1/optimize", OptimizeRequest{System: sys})
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("missing-budget status = %d, body %s", resp3.StatusCode, body)
	}

	neg := -3.0
	resp4, body := postJSON(t, ts.URL+"/v1/optimize",
		OptimizeRequest{System: sys, Spec: core.Spec{Budget: &neg}})
	if resp4.StatusCode != http.StatusBadRequest {
		t.Errorf("negative-budget status = %d, body %s", resp4.StatusCode, body)
	}
}

func TestSweepEndpointAndCache(t *testing.T) {
	ts := newTestServer(t, Config{})
	sys := testSystem(t, 12, 6)
	req := SweepRequest{System: sys, Steps: 4}
	resp, body := postJSON(t, ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var out SweepResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decode sweep response: %v", err)
	}
	if len(out.Points) != 5 {
		t.Fatalf("sweep returned %d points, want 5", len(out.Points))
	}
	for _, p := range out.Points {
		if p.Optimal == nil || p.Greedy == nil || p.Random == nil {
			t.Fatalf("sweep point missing a series: %+v", p)
		}
		if p.Optimal.Utility+1e-9 < p.Greedy.Utility {
			t.Errorf("budget %v: optimal %v below greedy %v",
				p.Budget, p.Optimal.Utility, p.Greedy.Utility)
		}
	}
	resp, second := postJSON(t, ts.URL+"/v1/sweep", req)
	if got := resp.Header.Get(cacheHeader); got != "hit" {
		t.Errorf("repeat sweep cache header = %q, want hit", got)
	}
	if !bytes.Equal(body, second) {
		t.Error("cached sweep response differs from the original")
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	var h healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	if h.Status != "ok" {
		t.Errorf("healthz status = %q, want ok", h.Status)
	}
}

func TestServeGracefulDrain(t *testing.T) {
	// Shutdown must drain: a solve in flight when the context is cancelled
	// still completes and its response is delivered before Serve returns.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{ShutdownGrace: 5 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx, l) }()

	sys := testSystem(t, 400, 100)
	frac := 0.3
	req := OptimizeRequest{System: sys, Spec: core.Spec{BudgetFraction: &frac}, DeadlineMillis: 400}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + l.Addr().String() + "/v1/optimize"

	type reply struct {
		status int
		body   []byte
		err    error
	}
	replies := make(chan reply, 1)
	go func() {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			replies <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		replies <- reply{status: resp.StatusCode, body: out}
	}()

	// Give the request time to reach the solver, then trigger shutdown
	// while it is still in flight.
	time.Sleep(50 * time.Millisecond)
	cancel()

	select {
	case r := <-replies:
		if r.err != nil {
			t.Fatalf("in-flight request failed during drain: %v", r.err)
		}
		if r.status != http.StatusOK {
			t.Fatalf("in-flight request status = %d, body %s", r.status, r.body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request not answered during drain")
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve returned %v, want nil after clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
}

// TestOptimizeDecompose exercises the decompose request field: "on" routes a
// block-structured system through the decomposition solver (visible in the
// stats), "off" pins the monolithic path, both proving the same utility, and
// the two never alias in the solution cache.
func TestOptimizeDecompose(t *testing.T) {
	ts := newTestServer(t, Config{})
	sys, err := synth.Generate(synth.Config{
		Seed: 17, Monitors: 60, Attacks: 30, Segments: 3, CrossFraction: 0.05,
	})
	if err != nil {
		t.Fatalf("synth.Generate: %v", err)
	}
	frac := 0.3
	resp, body := postJSON(t, ts.URL+"/v1/optimize",
		OptimizeRequest{System: sys, Spec: core.Spec{BudgetFraction: &frac, Decompose: "on"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decompose on: status = %d, body %s", resp.StatusCode, body)
	}
	on := decodeOptimize(t, body)
	if on.Result == nil || !on.Result.Proven {
		t.Fatalf("decompose on: expected proven result, got %s", body)
	}
	if on.Result.Stats.Decomposition == nil {
		t.Fatalf("decompose on: no decomposition stats in %s", body)
	}
	if on.Result.Stats.Decomposition.Segments < 2 {
		t.Errorf("decompose on: %d segments", on.Result.Stats.Decomposition.Segments)
	}

	resp, body = postJSON(t, ts.URL+"/v1/optimize",
		OptimizeRequest{System: sys, Spec: core.Spec{BudgetFraction: &frac, Decompose: "off"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decompose off: status = %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(cacheHeader); got != "miss" {
		t.Errorf("decompose off after on: cache header = %q, want miss (no aliasing)", got)
	}
	off := decodeOptimize(t, body)
	if off.Result == nil || !off.Result.Proven {
		t.Fatalf("decompose off: expected proven result, got %s", body)
	}
	if off.Result.Stats.Decomposition != nil {
		t.Errorf("decompose off: decomposition stats present in %s", body)
	}
	if diff := on.Result.Utility - off.Result.Utility; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("utility: decomposed %v, monolithic %v", on.Result.Utility, off.Result.Utility)
	}

	resp, body = postJSON(t, ts.URL+"/v1/optimize",
		OptimizeRequest{System: sys, Spec: core.Spec{BudgetFraction: &frac, Decompose: "sideways"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad decompose: status = %d, body %s", resp.StatusCode, body)
	}
}
