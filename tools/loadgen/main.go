// Command loadgen is the serving-layer load rig: a seeded, open-loop
// discrete-event workload generator driven against an in-process server
// (no network between the generator and the handler, so the numbers
// measure the serving path, not the loopback stack).
//
// Arrivals are precomputed from the seed — exponential inter-batch gaps
// with geometrically sized batches, so one knob (-burst) moves the traffic
// from Poisson (burst=1) to heavily clumped — and replayed by a
// priority-queue event loop in real time. The schedule never waits for
// completions (open loop): when the server falls behind, requests queue up
// exactly as they would in production, and latency is measured from the
// *scheduled* arrival, so coordinated omission cannot hide queueing delay.
//
// Each request is drawn from the seeded mix: with probability -identical it
// is THE canonical sweep request (the coalescing/caching target), otherwise
// a unique-grid sweep assembled from a shared budget pool (the per-point
// cache target) or a fresh-budget optimize (incompressible solve work),
// tagged with a tenant sampled from -tenants. The first -warmup requests
// are excluded from the report.
//
// The report is one JSON row (goodput, p50/p99 latency, coalesce/cache/429
// rates, underlying solve count) consumed by tools/benchjson -throughput.
// -baseline reruns the identical workload against a server configured like
// the pre-serving-layer build: no coalescing, no warm-shared sweeps, no
// per-point cache, unbounded FIFO admission.
//
// Usage:
//
//	loadgen -scenario identical-sweep [-baseline] [-out row.json]
//	loadgen -scenario mixed -seed 7 -requests 200 -rate 300
package main

import (
	"bytes"
	"container/heap"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"secmon/internal/core"
	"secmon/internal/model"
	"secmon/internal/server"
	"secmon/internal/synth"
)

// row is the throughput record loadgen emits; tools/benchjson embeds it
// verbatim into the benchmark JSON and asserts ratios between rows.
type row struct {
	Name     string `json:"name"`
	Baseline bool   `json:"baseline,omitempty"`
	Seed     int64  `json:"seed"`
	Requests int    `json:"requests"`
	Warmup   int    `json:"warmup"`
	// DurationSec spans the first measured scheduled arrival to the last
	// measured completion.
	DurationSec float64 `json:"duration_s"`
	// GoodputRPS counts only 200 responses over DurationSec.
	GoodputRPS float64 `json:"goodput_rps"`
	// P50Ms / P99Ms are latency percentiles of the 200 responses, measured
	// from scheduled arrival to completion.
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	// CoalesceRate is the fraction of measured requests answered from a
	// concurrent identical request's solve; CacheHitRate counts full
	// response-cache hits; PartialRate counts sweeps assembled from the
	// per-point cache.
	CoalesceRate float64 `json:"coalesce_rate"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	PartialRate  float64 `json:"partial_rate"`
	// Rate429 is the fraction rejected by admission control; Timeouts408
	// counts deadline expiries. Neither counts as an error.
	Rate429     float64 `json:"rate_429"`
	Timeouts408 int     `json:"timeouts_408"`
	// Errors counts every response that is not 200/408/429.
	Errors int `json:"errors"`
	// Solves is the number of underlying optimizer runs the server
	// reported; the whole serving layer exists to shrink this.
	Solves int64 `json:"solves"`
}

// arrival is one scheduled request: when it fires and which request body it
// carries.
type arrival struct {
	at   time.Duration
	kind string // "optimize" or "sweep"
	body []byte
}

// eventQueue is the discrete-event priority queue the replay loop drains in
// timestamp order.
type eventQueue []arrival

func (q eventQueue) Len() int           { return len(q) }
func (q eventQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q eventQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)        { *q = append(*q, x.(arrival)) }
func (q *eventQueue) Pop() any          { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }

type outcome struct {
	scheduled time.Duration
	latency   time.Duration
	status    int
	cache     string
}

func main() {
	scenario := flag.String("scenario", "", "preset: identical-sweep or mixed (flags below override)")
	seed := flag.Int64("seed", 1, "workload seed (arrival schedule, request mix, tenants)")
	requests := flag.Int("requests", 0, "total requests, including warmup")
	warmup := flag.Int("warmup", -1, "leading requests excluded from the report")
	rate := flag.Float64("rate", 0, "mean arrival rate, requests/second")
	burst := flag.Float64("burst", 0, "burstiness: mean arrivals per batch (1 = Poisson)")
	identical := flag.Float64("identical", -1, "fraction of requests that are the one canonical sweep")
	tenants := flag.String("tenants", "", "tenant mix as name:weight,... (empty = single default tenant)")
	monitors := flag.Int("monitors", 40, "synthetic system size: monitors")
	attacks := flag.Int("attacks", 15, "synthetic system size: attacks")
	steps := flag.Int("steps", 0, "budget points per canonical sweep (0 = scenario default)")
	deadlineMillis := flag.Int64("deadline", 10_000, "per-request deadlineMillis")
	baseline := flag.Bool("baseline", false,
		"configure the server like the pre-serving-layer build: no coalescing, no warm sweeps, no point cache, unbounded queue")
	name := flag.String("name", "", "row name (default scenario[/baseline])")
	out := flag.String("out", "", "write the JSON row here (default stdout)")
	minCoalesce := flag.Float64("min-coalesce", -1, "fail unless coalesce_rate reaches this (smoke gate)")
	maxErrors := flag.Int("max-errors", -1, "fail if errors exceed this (smoke gate)")
	flag.Parse()

	// Scenario presets; explicitly passed flags win.
	def := func(iv *int, v int) {
		if *iv == 0 {
			*iv = v
		}
	}
	switch *scenario {
	case "identical-sweep":
		// One burst of identical sweeps: the coalescing stress case. The
		// whole point is concurrent identical work, so there is no warmup
		// (a warmup request would seed the response cache and turn the
		// burst into plain cache hits for every configuration).
		def(requests, 64)
		def(steps, 24)
		if *warmup < 0 {
			*warmup = 0
		}
		if *rate == 0 {
			*rate = 2000
		}
		if *burst == 0 {
			*burst = float64(*requests)
		}
		if *identical < 0 {
			*identical = 1
		}
	case "mixed":
		// Sustained mixed traffic: half canonical sweeps, the rest split
		// between overlapping-grid sweeps (per-point cache target) and
		// fresh-budget optimizes (incompressible), across three tenants.
		def(requests, 200)
		def(steps, 24)
		if *warmup < 0 {
			*warmup = 8
		}
		if *rate == 0 {
			*rate = 400
		}
		if *burst == 0 {
			*burst = 8
		}
		if *identical < 0 {
			*identical = 0.5
		}
		if *tenants == "" {
			*tenants = "alpha:2,beta:1,gamma:1"
		}
	case "":
		if *requests == 0 || *rate == 0 {
			fatalf("pass -scenario identical-sweep|mixed, or set -requests and -rate explicitly")
		}
		if *warmup < 0 {
			*warmup = 0
		}
		if *burst == 0 {
			*burst = 1
		}
		if *identical < 0 {
			*identical = 1
		}
	default:
		fatalf("unknown scenario %q (want identical-sweep or mixed)", *scenario)
	}
	if *steps == 0 {
		*steps = 8
	}
	if *name == "" {
		*name = *scenario
		if *baseline {
			*name += "/baseline"
		} else {
			*name += "/serving"
		}
	}

	sys, err := synth.Generate(synth.Config{Seed: 11, Monitors: *monitors, Attacks: *attacks})
	if err != nil {
		fatalf("synth.Generate: %v", err)
	}

	cfg := server.Config{}
	if *baseline {
		cfg.DisableCoalescing = true
		cfg.DisableSweepWarm = true
		cfg.DisableSweepPointCache = true
		cfg.QueueDepth = -1 // the old bare semaphore never rejected
	}
	srv := server.New(cfg)
	handler := srv.Handler()

	schedule := buildSchedule(*seed, *requests, *rate, *burst, *identical, *tenants, sys, *steps, *deadlineMillis)

	results := replay(handler, schedule)

	r := summarize(*name, *baseline, *seed, *warmup, results)
	r.Solves = serverSolves(handler)

	enc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		fatalf("marshal row: %v", err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fatalf("write %s: %v", *out, err)
		}
		fmt.Fprintf(os.Stderr, "loadgen: %s: goodput %.1f rps, p50 %.1fms, p99 %.1fms, coalesce %.0f%%, 429 %.0f%%, solves %d\n",
			r.Name, r.GoodputRPS, r.P50Ms, r.P99Ms, 100*r.CoalesceRate, 100*r.Rate429, r.Solves)
	}

	if *minCoalesce >= 0 && r.CoalesceRate < *minCoalesce {
		fatalf("%s: coalesce_rate %.3f below required %.3f", r.Name, r.CoalesceRate, *minCoalesce)
	}
	if *maxErrors >= 0 && r.Errors > *maxErrors {
		fatalf("%s: %d errors exceed allowed %d", r.Name, r.Errors, *maxErrors)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
	os.Exit(1)
}

// buildSchedule precomputes the whole arrival sequence from the seed:
// timestamps (batched-exponential), request kinds, bodies and tenants. All
// randomness happens here, single-threaded, so a seed fully determines the
// offered workload.
func buildSchedule(seed int64, total int, rate, burst, identicalFrac float64, tenantSpec string, sys *model.System, steps int, deadlineMillis int64) []arrival {
	rng := rand.New(rand.NewSource(seed))
	tenantNames, tenantWeights := parseTenants(tenantSpec)

	// The canonical sweep every "identical" request issues.
	canonical := mustMarshal(server.SweepRequest{
		System:         sys,
		Steps:          steps,
		Workers:        1,
		DeadlineMillis: deadlineMillis,
	})

	// Budget pool for the overlapping-grid sweeps: unique-looking requests
	// whose individual budget points recur across requests.
	total100 := sys.TotalMonitorCost()
	pool := make([]float64, 12)
	for i := range pool {
		pool[i] = total100 * float64(i+1) / float64(len(pool)+1)
	}

	pickTenant := func() string {
		if len(tenantNames) == 0 {
			return ""
		}
		sum := 0
		for _, w := range tenantWeights {
			sum += w
		}
		n := rng.Intn(sum)
		for i, w := range tenantWeights {
			if n < w {
				return tenantNames[i]
			}
			n -= w
		}
		return tenantNames[len(tenantNames)-1]
	}

	var q eventQueue
	t := 0.0
	i := 0
	for i < total {
		// One batch: geometric size with mean `burst`, then an exponential
		// gap sized so the long-run rate stays `rate`.
		n := 1
		if burst > 1 {
			for rng.Float64() < 1-1/burst {
				n++
			}
		}
		for j := 0; j < n && i < total; j++ {
			at := time.Duration(t * float64(time.Second))
			tenant := pickTenant()
			var a arrival
			switch {
			case rng.Float64() < identicalFrac:
				a = arrival{at: at, kind: "sweep", body: withTenant(canonical, tenant)}
			case rng.Float64() < 0.6:
				// Overlapping-grid sweep: a random subset of the pool.
				grid := append([]float64(nil), pool...)
				rng.Shuffle(len(grid), func(a, b int) { grid[a], grid[b] = grid[b], grid[a] })
				grid = grid[:4+rng.Intn(4)]
				sort.Float64s(grid)
				a = arrival{at: at, kind: "sweep", body: mustMarshal(server.SweepRequest{
					System:         sys,
					Budgets:        grid,
					Workers:        1,
					Tenant:         tenant,
					DeadlineMillis: deadlineMillis,
				})}
			default:
				// Fresh-budget optimize: never cacheable, never coalescable.
				b := total100 * (0.05 + 0.9*rng.Float64())
				a = arrival{at: at, kind: "optimize", body: mustMarshal(server.OptimizeRequest{
					System:         sys,
					Spec:           core.Spec{Budget: &b},
					Tenant:         tenant,
					DeadlineMillis: deadlineMillis,
				})}
			}
			heap.Push(&q, a)
			i++
		}
		t += rng.ExpFloat64() * burst / rate
	}

	// Drain the priority queue into firing order.
	schedule := make([]arrival, 0, total)
	for q.Len() > 0 {
		schedule = append(schedule, heap.Pop(&q).(arrival))
	}
	return schedule
}

// withTenant stamps the tenant into an already-marshaled canonical request
// without disturbing the rest of the body. Tenant does not participate in
// the server's cache or coalescing keys, so tenant-stamped canonical
// requests still coalesce with each other.
func withTenant(body []byte, tenant string) []byte {
	if tenant == "" {
		return body
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		fatalf("withTenant: %v", err)
	}
	m["tenant"] = tenant
	return mustMarshal(m)
}

func parseTenants(spec string) (names []string, weights []int) {
	if spec == "" {
		return nil, nil
	}
	for _, part := range strings.Split(spec, ",") {
		name, wstr, ok := strings.Cut(strings.TrimSpace(part), ":")
		w := 1
		if ok {
			v, err := strconv.Atoi(wstr)
			if err != nil || v <= 0 {
				fatalf("bad tenant weight in %q", part)
			}
			w = v
		}
		names = append(names, name)
		weights = append(weights, w)
	}
	return names, weights
}

func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		fatalf("marshal request: %v", err)
	}
	return b
}

// replay fires the schedule open-loop against the in-process handler: the
// event loop sleeps until each arrival's timestamp and dispatches it in its
// own goroutine, never waiting for earlier requests to finish.
func replay(handler http.Handler, schedule []arrival) []outcome {
	results := make([]outcome, len(schedule))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range schedule {
		if d := time.Until(start.Add(a.at)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, a arrival) {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodPost, "/v1/"+a.kind, bytes.NewReader(a.body))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req)
			// Latency from the SCHEDULED arrival: any dispatch lag the
			// generator itself accumulated counts against the server, the
			// open-loop convention that defeats coordinated omission.
			results[i] = outcome{
				scheduled: a.at,
				latency:   time.Since(start.Add(a.at)),
				status:    rec.Code,
				cache:     rec.Header().Get("Secmon-Cache"),
			}
		}(i, a)
	}
	wg.Wait()
	return results
}

func summarize(name string, baseline bool, seed int64, warmup int, results []outcome) row {
	measured := results[warmup:]
	r := row{
		Name:     name,
		Baseline: baseline,
		Seed:     seed,
		Requests: len(results),
		Warmup:   warmup,
	}
	var latencies []time.Duration
	var firstArrival, lastDone time.Duration
	oks, coalesced, hits, partial, rejected := 0, 0, 0, 0, 0
	for i, o := range measured {
		if i == 0 || o.scheduled < firstArrival {
			firstArrival = o.scheduled
		}
		if end := o.scheduled + o.latency; end > lastDone {
			lastDone = end
		}
		switch o.status {
		case http.StatusOK:
			oks++
			latencies = append(latencies, o.latency)
			switch o.cache {
			case "coalesced":
				coalesced++
			case "hit":
				hits++
			case "partial":
				partial++
			}
		case http.StatusTooManyRequests:
			rejected++
		case http.StatusRequestTimeout:
			r.Timeouts408++
		default:
			r.Errors++
		}
	}
	n := float64(len(measured))
	if n == 0 {
		return r
	}
	window := (lastDone - firstArrival).Seconds()
	if window > 0 {
		r.GoodputRPS = float64(oks) / window
	}
	r.DurationSec = window
	r.CoalesceRate = float64(coalesced) / n
	r.CacheHitRate = float64(hits) / n
	r.PartialRate = float64(partial) / n
	r.Rate429 = float64(rejected) / n
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	r.P50Ms = percentile(latencies, 0.50)
	r.P99Ms = percentile(latencies, 0.99)
	return r
}

func percentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return float64(sorted[idx]) / float64(time.Millisecond)
}

// serverSolves reads the underlying solve count back from /v1/stats.
func serverSolves(handler http.Handler) int64 {
	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	var st struct {
		Solves int64 `json:"solves"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return -1
	}
	return st.Solves
}
