package server

import (
	"fmt"
	"net/http"
	"sync"
	"testing"

	"secmon/internal/certify"
	"secmon/internal/core"
)

func TestOptimizeCertify(t *testing.T) {
	ts := newTestServer(t, Config{})
	sys := testSystem(t, 12, 6)
	frac := 0.4
	resp, body := postJSON(t, ts.URL+"/v1/optimize",
		OptimizeRequest{System: sys, Spec: core.Spec{BudgetFraction: &frac, Certify: true}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	out := decodeOptimize(t, body)
	if !out.CertificateVerified {
		t.Fatalf("certificateVerified false: %s", body)
	}
	if out.Result.Certificate == nil {
		t.Fatalf("no certificate echoed: %s", body)
	}
	// The echoed certificate must itself verify client-side: the response
	// carries the full proof, not just the server's word for it.
	if _, err := certify.Verify(out.Result.Certificate); err != nil {
		t.Fatalf("echoed certificate rejected: %v", err)
	}

	// Identical certified request: served from cache, proof still attached.
	resp, body = postJSON(t, ts.URL+"/v1/optimize",
		OptimizeRequest{System: sys, Spec: core.Spec{BudgetFraction: &frac, Certify: true}})
	if got := resp.Header.Get(cacheHeader); got != "hit" {
		t.Fatalf("second certified request cache header %q, want hit", got)
	}
	if out := decodeOptimize(t, body); !out.CertificateVerified || out.Result.Certificate == nil {
		t.Fatalf("cached certified response lost its proof: %s", body)
	}

	// An uncertified request of the same problem must NOT alias the
	// certified cache entry.
	resp, body = postJSON(t, ts.URL+"/v1/optimize",
		OptimizeRequest{System: sys, Spec: core.Spec{BudgetFraction: &frac}})
	if got := resp.Header.Get(cacheHeader); got != "miss" {
		t.Fatalf("uncertified request aliased the certified entry (header %q)", got)
	}
	if out := decodeOptimize(t, body); out.Result.Certificate != nil || out.CertificateVerified {
		t.Fatalf("uncertified response carries certificate state: %s", body)
	}
}

// TestOptimizeCertifiedLoad hammers /v1/optimize concurrently with mixed
// kernels, worker counts, certification, and deadlines over a handful of
// distinct systems, exercising the proven-result LRU under contention. Run
// under -race via `make race-solver`.
func TestOptimizeCertifiedLoad(t *testing.T) {
	ts := newTestServer(t, Config{MaxConcurrent: 4, CacheSize: 8})
	systems := []int{8, 10, 12}
	kernels := []string{"", "sparse", "dense"}

	const clients = 24
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			sys := testSystem(t, systems[c%len(systems)], 6)
			frac := 0.3 + 0.1*float64(c%3)
			req := OptimizeRequest{
				System: sys,
				Spec: core.Spec{
					BudgetFraction: &frac,
					Certify:        c%2 == 0,
					Kernel:         kernels[c%len(kernels)],
					Workers:        1 + 3*(c%2),
				},
				DeadlineMillis: int64(2000 + 500*(c%3)),
			}
			resp, body := postJSON(t, ts.URL+"/v1/optimize", req)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("client %d: status %d: %s", c, resp.StatusCode, body)
				return
			}
			out := decodeOptimize(t, body)
			if out.Result == nil {
				errs <- fmt.Errorf("client %d: empty result", c)
				return
			}
			if req.Certify && out.Result.Proven {
				if !out.CertificateVerified || out.Result.Certificate == nil {
					errs <- fmt.Errorf("client %d: proven certified result lacks a verified proof", c)
					return
				}
				if _, err := certify.Verify(out.Result.Certificate); err != nil {
					errs <- fmt.Errorf("client %d: certificate rejected: %v", c, err)
					return
				}
			}
			if !req.Certify && out.Result.Certificate != nil {
				errs <- fmt.Errorf("client %d: uncertified request got a certificate", c)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
