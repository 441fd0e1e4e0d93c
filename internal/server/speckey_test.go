package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

func postRaw(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	return postJSON(t, url, json.RawMessage(body))
}

// TestOptimizeSpellingsShareCacheEntry sends six /v1/optimize bodies that
// spell one solve differently — kernel "sparse" or "lu", decompose omitted
// or "auto", corroboration omitted or 1, a budget beside the budgetFraction
// that wins over it, workers omitted or 1. On a server that solves every
// request fresh they produce the same result, counters included, which is
// what lets the cache key fold them; on a caching server every body after
// the first is a hit with the first body's bytes. Bodies that differ in
// meaning (another kernel, worker count or kept monitor) still miss.
func TestOptimizeSpellingsShareCacheEntry(t *testing.T) {
	sys := testSystem(t, 12, 6)
	sysJSON, err := json.Marshal(sys)
	if err != nil {
		t.Fatal(err)
	}
	body := func(fields string) string {
		return fmt.Sprintf(`{"system":%s,"budgetFraction":0.4,%s}`, sysJSON, fields)
	}
	same := []string{
		body(`"kernel":"sparse"`),
		body(`"kernel":"lu"`),
		body(`"kernel":"sparse","decompose":"auto"`),
		body(`"kernel":"sparse","corroboration":1`),
		body(`"kernel":"sparse","budget":123.5`),
		body(`"kernel":"sparse","workers":1`),
	}
	differ := []string{
		body(`"kernel":"dense"`),
		body(`"kernel":"sparse","workers":2`),
		body(fmt.Sprintf(`"kernel":"sparse","existing":[%q]`, sys.Monitors[0].ID)),
	}

	// Fresh solves: every spelling runs the identical solve.
	fresh := newTestServer(t, Config{CacheSize: -1, DisableCoalescing: true})
	var ref string
	for i, b := range same {
		resp, out := postRaw(t, fresh.URL+"/v1/optimize", b)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("spelling %d: status %d, body %s", i, resp.StatusCode, out)
		}
		res := decodeOptimize(t, out).Result
		res.Stats.Elapsed = 0
		got, _ := json.Marshal(res)
		if i == 0 {
			ref = string(got)
		} else if string(got) != ref {
			t.Errorf("spelling %d solves differently:\n%s\nvs\n%s", i, got, ref)
		}
	}

	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var first []byte
	for i, b := range same {
		resp, out := postRaw(t, ts.URL+"/v1/optimize", b)
		want := "hit"
		if i == 0 {
			want, first = "miss", out
		}
		if got := resp.Header.Get(cacheHeader); resp.StatusCode != http.StatusOK || got != want {
			t.Errorf("spelling %d: status %d, cache %q; want 200 %s", i, resp.StatusCode, got, want)
		}
		if !bytes.Equal(out, first) {
			t.Errorf("spelling %d: body differs from the first answer", i)
		}
	}
	for i, b := range differ {
		resp, out := postRaw(t, ts.URL+"/v1/optimize", b)
		if got := resp.Header.Get(cacheHeader); resp.StatusCode != http.StatusOK || got != "miss" {
			t.Errorf("differing body %d: status %d, cache %q; want 200 miss (%s)", i, resp.StatusCode, got, out)
		}
	}
	if got, want := s.stats.solves.Load(), int64(1+len(differ)); got != want {
		t.Errorf("%d solves, want %d", got, want)
	}
}

// TestSweepDefaultsShareCacheEntry checks that omitting seed and
// solverWorkers and sending their defaults (1 and 1) key the same sweep.
func TestSweepDefaultsShareCacheEntry(t *testing.T) {
	sysJSON, err := json.Marshal(testSystem(t, 12, 6))
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{})
	var first []byte
	for i, extra := range []string{``, `,"seed":1`, `,"solverWorkers":1`, `,"seed":1,"solverWorkers":1`} {
		resp, out := postRaw(t, ts.URL+"/v1/sweep", fmt.Sprintf(`{"system":%s,"steps":3%s}`, sysJSON, extra))
		want := "hit"
		if i == 0 {
			want, first = "miss", out
		}
		if got := resp.Header.Get(cacheHeader); resp.StatusCode != http.StatusOK || got != want {
			t.Errorf("body %q: status %d, cache %q; want 200 %s", extra, resp.StatusCode, got, want)
		}
		if !bytes.Equal(out, first) {
			t.Errorf("body %q: response differs from the first", extra)
		}
	}
	resp, _ := postRaw(t, ts.URL+"/v1/sweep", fmt.Sprintf(`{"system":%s,"steps":3,"seed":2}`, sysJSON))
	if got := resp.Header.Get(cacheHeader); got != "miss" {
		t.Errorf("seed 2 after seed 1: cache %q; want a miss", got)
	}
}
