package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"

	"secmon/internal/campaign"
	"secmon/internal/core"
	"secmon/internal/metrics"
	"secmon/internal/model"
	"secmon/internal/server"
	"secmon/internal/synth"
)

// serve-mixed: an open loop. Batches of identical requests arrive at seeded
// uniform times over the window (a Poisson process conditioned on its
// count) at one fixed rate below saturation. Each request is dispatched in
// its own goroutine into an in-process server.New(...).Handler(), with no
// sockets, and timed from its scheduled send. The HTTP/JSON path,
// admission, cache and coalescing carry most requests; the solver only sees
// small instances, and decomposition and state are unused.
const (
	serveLimit = 250 * time.Millisecond // latency limit behind slo_met_share

	serveBatchRate = 70.0 // request batches per second

	serveGridPoints = 8 // shared budget levels of the overlapping sweeps
)

// serveMix is the intended share of request batches per class.
var serveMix = []struct {
	class string
	share float64
}{
	{"sweep-hit", 0.66},     // the canonical sweep: a cache hit or coalesced
	{"sweep-partial", 0.10}, // two shared grid budgets plus a fresh one
	{"optimize-miss", 0.12}, // a fresh budget fraction
	{"simulate", 0.12},      // a fresh campaign seed with check:true
}

// serveBatchSizes is the distribution of identical requests per batch.
var serveBatchSizes = []struct {
	size  int
	share float64
}{{1, 0.6}, {2, 0.25}, {3, 0.15}}

// serveTenants are the weighted tenants requests are spread over, weighted
// for both the admission queue and the request share.
var serveTenants = []struct {
	name   string
	weight int
}{{"gold", 3}, {"silver", 2}, {"bronze", 1}}

// servePayload is one distinct request body (modulo tenant): every request
// of a batch shares it.
type servePayload struct {
	class string
	path  string
	body  map[string]any // without tenant
	// What the check needs.
	budgets []float64 // sweep budgets, or the optimize budget
}

type serveReq struct {
	at      time.Duration
	payload int
	body    []byte
}

type serveMixed struct {
	e       env
	srv     *server.Server
	h       http.Handler
	idx     map[string]*model.Index // by system role
	systems map[string]*model.System
	grid    []float64
	refs    map[[2]float64]float64 // reference utility by (system tag, budget)
}

func setupServe(e env) (runner, error) {
	rng := rand.New(rand.NewSource(e.seed))
	s := &serveMixed{e: e, idx: map[string]*model.Index{}, systems: map[string]*model.System{},
		refs: map[[2]float64]float64{}}
	for _, role := range []struct {
		name string
		cfg  synth.Config
	}{
		{"sweep", synth.Config{Monitors: 30, Attacks: 30}},
		{"partial", synth.Config{Monitors: 30, Attacks: 30}},
		{"optimize", synth.Config{Monitors: 40, Attacks: 40}},
	} {
		cfg := role.cfg
		cfg.Seed = rng.Int63()
		sys, err := synth.Generate(cfg)
		if err != nil {
			return nil, fmt.Errorf("synth %s: %w", role.name, err)
		}
		idx, err := model.NewIndex(sys)
		if err != nil {
			return nil, fmt.Errorf("index %s: %w", role.name, err)
		}
		s.systems[role.name], s.idx[role.name] = sys, idx
	}
	total := s.systems["partial"].TotalMonitorCost()
	for i := 0; i < serveGridPoints; i++ {
		s.grid = append(s.grid, total*(0.4+0.5*float64(i)/float64(serveGridPoints-1)))
	}
	weights := map[string]int{}
	for _, t := range serveTenants {
		weights[t.name] = t.weight
	}
	s.srv = server.New(server.Config{TenantWeights: weights})
	s.h = s.srv.Handler()

	// Warm-up: the canonical sweep enters the cache and every shared grid
	// budget enters the per-point cache, so measured requests see the
	// steady state; one optimize and one simulation run every request path
	// once.
	warm := []servePayload{s.canonicalSweep(), s.gridSweep(),
		{path: "/v1/optimize", body: map[string]any{"system": s.systems["optimize"], "budgetFraction": 0.5, "workers": 1}},
		{path: "/v1/simulate", body: map[string]any{"all": true, "seed": -1, "trials": 300, "check": true}},
	}
	for _, p := range warm {
		b, err := json.Marshal(p.body)
		if err != nil {
			return nil, err
		}
		rec := httptest.NewRecorder()
		s.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, p.path, bytes.NewReader(b)))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("warm-up %s: status %d: %s", p.path, rec.Code, rec.Body.String())
		}
	}
	return s, nil
}

func (s *serveMixed) close() error { return s.srv.Close() }

func (s *serveMixed) canonicalSweep() servePayload {
	total := s.systems["sweep"].TotalMonitorCost()
	var budgets []float64
	for i := 0; i < 9; i++ {
		budgets = append(budgets, total*(0.4+0.05*float64(i)))
	}
	return servePayload{class: "sweep-hit", path: "/v1/sweep", budgets: budgets,
		body: map[string]any{"system": s.systems["sweep"], "budgets": budgets, "workers": 1, "solverWorkers": 1}}
}

func (s *serveMixed) gridSweep() servePayload {
	return servePayload{class: "sweep-partial", path: "/v1/sweep", budgets: s.grid,
		body: map[string]any{"system": s.systems["partial"], "budgets": s.grid, "workers": 1, "solverWorkers": 1}}
}

// schedule generates the seeded arrivals of a pass of length d: payloads and
// request bodies, sorted by send time.
func (s *serveMixed) schedule(d time.Duration) ([]servePayload, []serveReq, error) {
	rng := rand.New(rand.NewSource(s.e.seed ^ 0x5e7e))
	pick := func(shares []float64) int {
		x := rng.Float64()
		for i, p := range shares {
			if x < p {
				return i
			}
			x -= p
		}
		return len(shares) - 1
	}
	classShares := make([]float64, len(serveMix))
	for i, m := range serveMix {
		classShares[i] = m.share
	}
	sizeShares := make([]float64, len(serveBatchSizes))
	for i, b := range serveBatchSizes {
		sizeShares[i] = b.share
	}
	tenantShares := make([]float64, len(serveTenants))
	wsum := 0
	for _, t := range serveTenants {
		wsum += t.weight
	}
	for i, t := range serveTenants {
		tenantShares[i] = float64(t.weight) / float64(wsum)
	}

	n := int(serveBatchRate * d.Seconds())
	times := make([]float64, n)
	for i := range times {
		times[i] = rng.Float64() * d.Seconds()
	}
	sort.Float64s(times)

	payloads := []servePayload{s.canonicalSweep()}
	var reqs []serveReq
	for _, t := range times {
		pi := 0
		switch serveMix[pick(classShares)].class {
		case "sweep-hit":
		case "sweep-partial":
			j := rng.Intn(serveGridPoints - 1)
			fresh := s.systems["partial"].TotalMonitorCost() * (0.4 + 0.5*rng.Float64())
			budgets := []float64{s.grid[j], s.grid[j+1], fresh}
			payloads = append(payloads, servePayload{class: "sweep-partial", path: "/v1/sweep", budgets: budgets,
				body: map[string]any{"system": s.systems["partial"], "budgets": budgets, "workers": 1, "solverWorkers": 1}})
			pi = len(payloads) - 1
		case "optimize-miss":
			frac := 0.4 + 0.5*rng.Float64()
			payloads = append(payloads, servePayload{class: "optimize-miss", path: "/v1/optimize",
				budgets: []float64{s.systems["optimize"].TotalMonitorCost() * frac},
				body:    map[string]any{"system": s.systems["optimize"], "budgetFraction": frac, "workers": 1}})
			pi = len(payloads) - 1
		case "simulate":
			payloads = append(payloads, servePayload{class: "simulate", path: "/v1/simulate",
				body: map[string]any{"all": true, "seed": rng.Int63n(1<<40) + 1,
					"trials": 300, "check": true}})
			pi = len(payloads) - 1
		}
		k := serveBatchSizes[pick(sizeShares)].size
		for i := 0; i < k; i++ {
			body := map[string]any{}
			for key, v := range payloads[pi].body {
				body[key] = v
			}
			body["tenant"] = serveTenants[pick(tenantShares)].name
			b, err := json.Marshal(body)
			if err != nil {
				return nil, nil, err
			}
			reqs = append(reqs, serveReq{at: time.Duration(t * float64(time.Second)), payload: pi, body: b})
		}
	}
	return payloads, reqs, nil
}

// serveOutcome is what one request got back.
type serveOutcome struct {
	status  int
	cache   string
	handler time.Duration // time inside ServeHTTP
	latency time.Duration // completion minus scheduled send
	lag     time.Duration
	// differs is the body when it differs from the first body of its
	// payload, kept for the check after the window; nil otherwise.
	differs []byte
}

func (s *serveMixed) stats() (map[string]any, error) {
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	return out, nil
}

func (s *serveMixed) run(d time.Duration, tr *tracer) (*passResult, error) {
	payloads, reqs, err := s.schedule(d)
	if err != nil {
		return nil, err
	}
	before, err := s.stats()
	if err != nil {
		return nil, err
	}
	out := make([]serveOutcome, len(reqs))
	first := make([][]byte, len(payloads)) // first 200 body per payload
	var mu sync.Mutex
	var wg sync.WaitGroup

	m := startMeter()
	start := time.Now()
	for i := range reqs {
		due := start.Add(reqs[i].at)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		lag := time.Since(due)
		wg.Add(1)
		go func(i int, due time.Time, lag time.Duration) {
			defer wg.Done()
			r := reqs[i]
			p := payloads[r.payload]
			root := tr.begin("serve.request["+p.class+"]", int64(i+1))
			req := httptest.NewRequest(http.MethodPost, p.path, bytes.NewReader(r.body))
			rec := httptest.NewRecorder()
			sp := tr.child(root, "server.Handler"+p.path)
			t0 := time.Now()
			s.h.ServeHTTP(rec, req)
			handler := time.Since(t0)
			tr.end(sp)
			o := serveOutcome{status: rec.Code, cache: rec.Header().Get("Secmon-Cache"),
				handler: handler, latency: time.Since(due), lag: lag}
			tr.end(root)
			if rec.Code == http.StatusOK {
				body := rec.Body.Bytes()
				mu.Lock()
				if first[r.payload] == nil {
					first[r.payload] = body
				} else if !bytes.Equal(first[r.payload], body) {
					o.differs = body
				}
				mu.Unlock()
			}
			out[i] = o
		}(i, due, lag)
	}
	wg.Wait()
	win := m.finish()
	after, err := s.stats()
	if err != nil {
		return nil, err
	}

	// Output checks, outside the measured window.
	payloadErr := make([]error, len(payloads))
	var agg solveAgg
	var events, simSeconds float64
	for pi, body := range first {
		if body == nil {
			continue
		}
		payloadErr[pi] = s.checkBody(payloads[pi], body, &agg)
		if payloads[pi].class == "simulate" {
			var resp server.SimulateResponse
			if json.Unmarshal(body, &resp) == nil && resp.Summary != nil {
				events += float64(resp.Summary.Events + resp.Summary.BenignEvents)
			}
		}
	}

	ops := make([]opRecord, len(reqs))
	counts := map[string]float64{}
	handlerMS := map[string][]float64{}
	misses := make([]int, len(payloads))
	duplicates := 0
	for i, o := range out {
		p := payloads[reqs[i].payload]
		if o.cache == "miss" {
			if misses[reqs[i].payload]++; misses[reqs[i].payload] > 1 {
				duplicates++
			}
		}
		var err error
		switch {
		case o.status != http.StatusOK:
			err = fmt.Errorf("%s %s: status %d", p.class, p.path, o.status)
		default:
			err = payloadErr[reqs[i].payload]
			if o.differs == nil {
				break
			}
			if path := bodyDiff(first[reqs[i].payload], o.differs); path != "" {
				err = checkFail("%s: %s body differs from the first response of the same request at %s", p.class, o.cache, path)
			}
		}
		ops[i] = opRecord{class: p.class, latency: o.latency, lag: o.lag, err: err}
		counts[o.cache]++
		counts["class:"+p.class]++
		key := p.class + "/" + o.cache
		handlerMS[key] = append(handlerMS[key], ms(o.handler))
		if p.class == "simulate" && o.cache == "miss" {
			simSeconds += o.handler.Seconds()
		}
	}

	n := float64(len(reqs))
	delta := func(k string) float64 {
		a, _ := after[k].(float64)
		b, _ := before[k].(float64)
		return a - b
	}
	var hitMS, sweepMS []float64
	for k, v := range handlerMS {
		switch {
		case strings.HasSuffix(k, "/hit"):
			hitMS = append(hitMS, v...)
		case k == "sweep-partial/partial" || k == "sweep-partial/miss":
			sweepMS = append(sweepMS, v...)
		}
	}
	layer := map[string]float64{
		"server.hit_share":            counts["hit"] / n,
		"server.partial_share":        counts["partial"] / n,
		"server.coalesced_share":      counts["coalesced"] / n,
		"server.hit_ms_p50":           median(hitMS),
		"server.solves_per_request":   delta("solves") / n,
		"server.duplicate_miss_share": float64(duplicates) / n,
		"server.queued_share":         delta("queued") / n,
		"server.rejected_share":       delta("rejected") / n,
		"server.timeout_share":        delta("timeouts") / n,
		"server.optimize_miss_ms_p50": median(handlerMS["optimize-miss/miss"]),
		"server.sweep_ms_p50":         median(sweepMS),
		"campaign.simulate_ms_p50":    median(handlerMS["simulate/miss"]),
		"campaign.events_per_s":       ratio(events, simSeconds),
	}
	agg.fill(layer)
	notes := []string{
		fmt.Sprintf("open loop: %.0f batches/s, %d requests in %d batches over %.1fs (%.1f req/s); limit %v",
			serveBatchRate, len(reqs), int(serveBatchRate*d.Seconds()), d.Seconds(), n/d.Seconds(), serveLimit),
		fmt.Sprintf("request share by class: hit-sweep %.3f, partial-sweep %.3f, optimize %.3f, simulate %.3f",
			counts["class:sweep-hit"]/n, counts["class:sweep-partial"]/n, counts["class:optimize-miss"]/n, counts["class:simulate"]/n),
		fmt.Sprintf("response share by cache outcome: hit %.3f, partial %.3f, coalesced %.3f, miss %.3f",
			counts["hit"]/n, counts["partial"]/n, counts["coalesced"]/n, counts["miss"]/n),
		fmt.Sprintf("server counters per request: solves %.3f, queued %.3f, rejected %.3f, timeouts %.3f",
			layer["server.solves_per_request"], layer["server.queued_share"], layer["server.rejected_share"], layer["server.timeout_share"]),
		fmt.Sprintf("duplicate misses: %d (solves of a request that an identical earlier request had already solved)", duplicates),
	}
	return &passResult{ops: ops, win: win, layer: layer, notes: notes}, nil
}

// bodyDiff compares two 200 bodies of the same request and returns the JSON
// path of the first difference, or "" when they agree. Every "elapsed" field
// is left out: it is the wall-clock time of a solve, so two solves of one
// request differ there and nowhere else. A hit, coalesced or partial reply
// is byte-identical to the solve it replays; it reaches this comparison only
// when a duplicate miss solved the request again and cached its own body.
func bodyDiff(a, b []byte) string {
	var x, y any
	if json.Unmarshal(a, &x) != nil || json.Unmarshal(b, &y) != nil {
		return "$ (undecodable)"
	}
	return jsonDiff("$", x, y)
}

func jsonDiff(path string, x, y any) string {
	switch xv := x.(type) {
	case map[string]any:
		yv, ok := y.(map[string]any)
		if !ok {
			return path
		}
		keys := make([]string, 0, len(xv)+len(yv))
		for k := range xv {
			keys = append(keys, k)
		}
		for k := range yv {
			if _, ok := xv[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			if k == "elapsed" {
				continue
			}
			xe, xok := xv[k]
			ye, yok := yv[k]
			if xok != yok {
				return path + "." + k
			}
			if d := jsonDiff(path+"."+k, xe, ye); d != "" {
				return d
			}
		}
		return ""
	case []any:
		yv, ok := y.([]any)
		if !ok || len(xv) != len(yv) {
			return path
		}
		for i := range xv {
			if d := jsonDiff(fmt.Sprintf("%s[%d]", path, i), xv[i], yv[i]); d != "" {
				return d
			}
		}
		return ""
	default:
		if x != y {
			return path
		}
		return ""
	}
}

// checkBody verifies one distinct response: optimize and sweep results are
// proven, their utility and cost match internal/metrics, the budget holds
// and the utility equals the reference optimum; a simulation converged with
// no divergences.
func (s *serveMixed) checkBody(p servePayload, body []byte, agg *solveAgg) error {
	switch p.path {
	case "/v1/optimize":
		var resp server.OptimizeResponse
		if err := json.Unmarshal(body, &resp); err != nil || resp.Result == nil {
			return checkFail("optimize: undecodable body: %v", err)
		}
		agg.add(&resp.Result.Stats)
		return s.checkResult("optimize", resp.Result, p.budgets[0])
	case "/v1/sweep":
		var resp server.SweepResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return checkFail("sweep: undecodable body: %v", err)
		}
		if len(resp.Points) != len(p.budgets) {
			return checkFail("sweep: %d points for %d budgets", len(resp.Points), len(p.budgets))
		}
		role := "partial"
		if p.class == "sweep-hit" {
			role = "sweep"
		}
		for i, pt := range resp.Points {
			if pt.Optimal == nil {
				return checkFail("sweep: point %d has no optimal result", i)
			}
			if err := s.checkResult(role, pt.Optimal, p.budgets[i]); err != nil {
				return err
			}
		}
		return nil
	default:
		var resp server.SimulateResponse
		if err := json.Unmarshal(body, &resp); err != nil || resp.Summary == nil {
			return checkFail("simulate: undecodable body: %v", err)
		}
		if resp.Converged == nil || !*resp.Converged || len(resp.Divergences) > 0 {
			return checkFail("simulate: seed %d diverged from the analytic prediction: %v", resp.Summary.Seed, divergenceNames(resp.Divergences))
		}
		return nil
	}
}

func divergenceNames(ds []campaign.Divergence) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = fmt.Sprintf("%+v", d)
	}
	return out
}

func (s *serveMixed) checkResult(role string, res *core.Result, budget float64) error {
	idx := s.idx[role]
	if !res.Proven || res.Status != "optimal" {
		return checkFail("%s: not proven (status %q)", role, res.Status)
	}
	d := model.NewDeployment(res.Monitors...)
	u, c := metrics.Utility(idx, d), metrics.Cost(idx, d)
	if !close9(u, res.Utility) || !close9(c, res.Cost) {
		return checkFail("%s: reported utility %v cost %v, recomputed %v %v", role, res.Utility, res.Cost, u, c)
	}
	if c > budget*(1+1e-9)+1e-9 {
		return checkFail("%s: cost %v over budget %v", role, c, budget)
	}
	ref := s.reference(role, budget)
	if !(math.Abs(u-ref) <= 1e-7) {
		return checkFail("%s: utility %.12f at budget %v, reference optimum %.12f", role, u, budget, ref)
	}
	return nil
}

// reference is the optimum on the dense tableau kernel, called directly
// through core rather than the server.
func (s *serveMixed) reference(role string, budget float64) float64 {
	tag := map[string]float64{"sweep": 1, "partial": 2, "optimize": 3}[role]
	key := [2]float64{tag, budget}
	if v, ok := s.refs[key]; ok {
		return v
	}
	v := math.NaN()
	res, err := core.NewOptimizer(s.idx[role], core.WithDenseKernel(), core.WithWorkers(1)).MaxUtility(budget)
	if err == nil && res.Proven {
		v = res.Utility
		if s.e.corrupt {
			v += 1e-3
		}
	}
	s.refs[key] = v
	return v
}
