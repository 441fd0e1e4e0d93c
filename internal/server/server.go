// Package server exposes the deployment optimizer as an HTTP JSON API: the
// `secmon serve` layer. Every solve runs under a per-request deadline and is
// interruptible anytime-style (see core.WithContext), so a slow exact solve
// degrades to the best incumbent with a reported optimality gap instead of
// holding the connection open. The serving path is built for many concurrent
// clients, not just one fast solve: identical finished requests are answered
// from an LRU cache keyed by a canonical request hash, identical in-flight
// requests are coalesced onto a single solve (singleflight), sweeps reuse
// previously proven budget points from a per-point cache and share solver
// state across the remaining points, and solve slots are dispensed by a
// per-tenant weighted round-robin admission queue with a bounded backlog
// (fast 429 + Retry-After on overflow). Shutdown drains in-flight solves
// before the process exits.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"secmon/internal/casestudy"
	"secmon/internal/certify"
	"secmon/internal/core"
	"secmon/internal/lp"
	"secmon/internal/model"
	"secmon/internal/state"
)

// cacheHeader reports how a response was obtained: "hit" (served from the
// full-response cache), "partial" (a sweep assembled from at least one
// cached budget point), "coalesced" (replayed from a concurrent identical
// request's solve) or "miss" (computed fresh). Response bodies are identical
// whichever path produced them.
const cacheHeader = "Secmon-Cache"

// maxTenantLen bounds the tenant tag, which feeds per-tenant queues and
// counters.
const maxTenantLen = 64

// Config tunes a Server. The zero value selects the documented defaults.
type Config struct {
	// DefaultDeadline bounds solves whose request carries no deadlineMillis
	// (default 30s).
	DefaultDeadline time.Duration
	// MaxDeadline caps request-supplied deadlines (default 5m).
	MaxDeadline time.Duration
	// MaxConcurrent bounds concurrently running solves; excess requests
	// queue for admission (default runtime.GOMAXPROCS(0)).
	MaxConcurrent int
	// QueueDepth bounds how many requests may wait for a solve slot across
	// all tenants; requests beyond it are rejected immediately with 429 and
	// a Retry-After header. 0 selects 16×MaxConcurrent; negative means
	// unbounded (every request waits, as the pre-admission-queue server
	// did).
	QueueDepth int
	// TenantWeights sets the weighted-round-robin dispatch weight per
	// tenant (default 1 each). A tenant with weight 2 receives two solve
	// slots for every one a weight-1 tenant gets, when both are queued.
	TenantWeights map[string]int
	// CacheSize is the LRU solution cache capacity in entries (default
	// 128; negative disables caching, including the sweep per-point cache).
	CacheSize int
	// ShutdownGrace bounds how long Shutdown waits for in-flight requests
	// to drain (default 30s).
	ShutdownGrace time.Duration
	// DisableCoalescing turns off in-flight request coalescing: every
	// request runs (and pays for) its own solve.
	DisableCoalescing bool
	// DisableSweepWarm makes /v1/sweep solve every budget point from cold
	// (core.ParetoSweepParallel) instead of the warm-shared sweep.
	DisableSweepWarm bool
	// DisableSweepPointCache turns off the per-budget-point sweep cache;
	// sweeps then only ever hit the full-response cache.
	DisableSweepPointCache bool
	// StateDir, when set, enables the stateful tenant surface
	// (/v1/tenants/...): per-tenant models mutated through typed deltas,
	// each committed to an append-only event log under this directory and
	// re-solved incrementally. Opening the directory replays every tenant
	// log found in it.
	StateDir string
}

func (c Config) withDefaults() Config {
	if c.DefaultDeadline == 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline == 0 {
		c.MaxDeadline = 5 * time.Minute
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 16 * c.MaxConcurrent
	}
	if c.CacheSize == 0 {
		c.CacheSize = 128
	}
	if c.CacheSize < 0 {
		c.CacheSize = 0
	}
	if c.ShutdownGrace == 0 {
		c.ShutdownGrace = 30 * time.Second
	}
	return c
}

// Server is the HTTP optimization service. Create one with New, mount
// Handler (or call Serve / ListenAndServe), and stop it by cancelling the
// context passed to Serve.
type Server struct {
	cfg      Config
	cache    *solutionCache
	adm      *admission
	flights  *flightGroup
	stats    *serveStats
	inFlight atomic.Int64
	mux      *http.ServeMux

	// store backs the /v1/tenants surface; nil when no StateDir was
	// configured or opening it failed (storeErr then says why, and every
	// tenant route answers 503 with that reason).
	store    *state.Store
	storeErr error

	// testSolveHook, when set, runs after admission and immediately before
	// each underlying optimizer run ("optimize" or "sweep"). Tests use it
	// to count and to block solves.
	testSolveHook func(kind string)
	// testDispatchHook, when set, runs after each solve-slot grant with the
	// request's tenant tag; tests use it to observe dispatch order.
	testDispatchHook func(tenant string)
	// testJoinHook, when set, runs after each flight join; tests use it to
	// know when every concurrent request has attached to a flight.
	testJoinHook func(leader bool)
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   newSolutionCache(cfg.CacheSize),
		adm:     newAdmission(cfg.MaxConcurrent, cfg.QueueDepth, cfg.TenantWeights),
		flights: newFlightGroup(),
		stats:   newServeStats(),
	}
	if cfg.StateDir != "" {
		s.store, s.storeErr = state.Open(cfg.StateDir)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/optimize", s.handleOptimize)
	s.mux.HandleFunc("/v1/sweep", s.handleSweep)
	s.mux.HandleFunc("/v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/healthz", s.handleHealthz)
	s.registerTenantRoutes()
	return s
}

// Close flushes and closes the tenant state store, if any. Serve calls it
// after the drain; servers mounted via Handler must call it themselves.
func (s *Server) Close() error {
	if s.store == nil {
		return nil
	}
	return s.store.Close()
}

// Handler returns the server's HTTP handler, for mounting under a custom
// http.Server or test harness.
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe binds addr and runs Serve on it.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", addr, err)
	}
	return s.Serve(ctx, l)
}

// Serve runs the HTTP service on l until ctx is cancelled, then shuts down
// gracefully: the listener closes immediately, in-flight requests (and
// their solves) get up to ShutdownGrace to finish, and only then does Serve
// return.
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	// A server explicitly configured with a StateDir that failed to open
	// must not come up half-working: fail fast instead of answering 503 on
	// every tenant route. Servers mounted via Handler keep the degraded
	// behavior so embedders can decide for themselves.
	if s.storeErr != nil {
		return fmt.Errorf("server: open state store: %w", s.storeErr)
	}
	srv := &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownGrace)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		srv.Close()
		s.Close()
		return fmt.Errorf("server: shutdown: %w", err)
	}
	<-errc // always http.ErrServerClosed after a clean Shutdown
	// The drain is complete: no handler can touch the store anymore, so
	// flush and close every tenant log before reporting a clean exit.
	if err := s.Close(); err != nil {
		return fmt.Errorf("server: close state store: %w", err)
	}
	return nil
}

// OptimizeRequest is the body of POST /v1/optimize. Omitting the system
// selects the built-in enterprise Web service case study. Exactly one of
// budget / budgetFraction is required unless minCost is set.
type OptimizeRequest struct {
	System *model.System `json:"system,omitempty"`
	// MinCost switches from budgeted utility maximization to cheapest
	// deployment meeting the coverage target.
	MinCost bool `json:"minCost,omitempty"`
	// Budget is the absolute spending cap for max-utility optimization.
	Budget *float64 `json:"budget,omitempty"`
	// BudgetFraction expresses the budget as a fraction of the system's
	// total monitor cost; it wins over Budget when both are set.
	BudgetFraction *float64 `json:"budgetFraction,omitempty"`
	// Target is the global coverage target for minCost (default 1).
	Target *float64 `json:"target,omitempty"`
	// Clamp clamps minCost targets to the achievable coverage.
	Clamp bool `json:"clamp,omitempty"`
	// Corroboration requires every counted evidence item to be produced by
	// at least k deployed monitors.
	Corroboration int `json:"corroboration,omitempty"`
	// Existing lists already-deployed monitors to keep (incremental mode).
	Existing []model.MonitorID `json:"existing,omitempty"`
	// Workers is the branch-and-bound worker count (0 = GOMAXPROCS,
	// 1 = sequential).
	Workers int `json:"workers,omitempty"`
	// Kernel selects the LP simplex kernel: "sparse"/"lu" (the default,
	// sparse LU factorization with Forrest-Tomlin updates), "eta" (the
	// retained eta-file kernel) or "dense" (the tableau correctness
	// oracle). It participates in the solution cache key, so results
	// computed by different kernels never alias.
	Kernel string `json:"kernel,omitempty"`
	// Certify makes the solve emit a machine-checkable optimality
	// certificate, echoed in the result and verified server-side before the
	// response is cached. It participates in the cache key, so certified and
	// uncertified solves of the same problem never alias.
	Certify bool `json:"certify,omitempty"`
	// Decompose selects the graph-partitioned decomposition solver: ""/
	// "auto" (on above the optimizer's size threshold), "on" or "off". It
	// participates in the cache key, so decomposed and monolithic solves of
	// the same problem never alias.
	Decompose string `json:"decompose,omitempty"`
	// Tenant tags the request for fair admission: solve slots are dispensed
	// round-robin across tenants (weighted by Config.TenantWeights), FIFO
	// within one. Empty selects the shared default pool. The tenant does
	// NOT participate in the cache or coalescing keys — identical problems
	// from different tenants share one solve and one cache entry.
	Tenant string `json:"tenant,omitempty"`
	// DeadlineMillis bounds this solve; 0 selects the server default. The
	// server caps it at its configured maximum. Time spent queued for
	// admission counts against the deadline, so a queued request keeps its
	// end-to-end SLO.
	DeadlineMillis int64 `json:"deadlineMillis,omitempty"`
}

// OptimizeResponse is the body of a successful POST /v1/optimize.
type OptimizeResponse struct {
	Result *core.Result `json:"result"`
	// DeadlineMillis is the deadline actually applied to the solve.
	DeadlineMillis int64 `json:"deadlineMillis"`
	// CertificateVerified is true when the request asked for certification
	// and the server re-verified the emitted certificate before replying.
	CertificateVerified bool `json:"certificateVerified,omitempty"`
}

// SweepRequest is the body of POST /v1/sweep: a Pareto sweep of MaxUtility
// over a budget grid with the greedy and random baselines.
type SweepRequest struct {
	System *model.System `json:"system,omitempty"`
	// Steps is the number of budget steps between 0 and the total monitor
	// cost (default 10); Budgets, when set, overrides the grid entirely.
	Steps   int       `json:"steps,omitempty"`
	Budgets []float64 `json:"budgets,omitempty"`
	// Seed drives the random baseline (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Workers is the number of concurrent budget points (0 = GOMAXPROCS);
	// SolverWorkers is the branch-and-bound worker count per solve.
	Workers       int `json:"workers,omitempty"`
	SolverWorkers int `json:"solverWorkers,omitempty"`
	// Tenant tags the request for fair admission; see
	// OptimizeRequest.Tenant.
	Tenant         string `json:"tenant,omitempty"`
	DeadlineMillis int64  `json:"deadlineMillis,omitempty"`
}

// SweepResponse is the body of a successful POST /v1/sweep.
type SweepResponse struct {
	Points         []core.SweepPoint `json:"points"`
	DeadlineMillis int64             `json:"deadlineMillis"`
}

// errorResponse is the body of every non-2xx reply.
type errorResponse struct {
	Error string `json:"error"`
}

// reply is a fully materialized HTTP response: what a solve produced, or
// what a flight leader publishes for followers to replay. shared marks a
// proven, deadline-independent 200 that identical requests may reuse
// verbatim.
type reply struct {
	status     int
	cache      string // Secmon-Cache header value, "" to omit
	retryAfter string // Retry-After header value, "" to omit
	body       []byte
	shared     bool
}

func errReply(status int, err error) reply {
	body, _ := json.Marshal(errorResponse{Error: err.Error()})
	return reply{status: status, body: body}
}

func writeReply(w http.ResponseWriter, rep reply) {
	w.Header().Set("Content-Type", "application/json")
	if rep.cache != "" {
		w.Header().Set(cacheHeader, rep.cache)
	}
	if rep.retryAfter != "" {
		w.Header().Set("Retry-After", rep.retryAfter)
	}
	w.WriteHeader(rep.status)
	w.Write(rep.body)
}

func writeJSON(w http.ResponseWriter, status int, cache string, body []byte) {
	writeReply(w, reply{status: status, cache: cache, body: body})
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeReply(w, errReply(status, err))
}

// statusFor maps optimizer errors onto HTTP statuses: caller mistakes are
// 400/422, everything else is a 500.
func statusFor(err error) int {
	switch {
	case errors.Is(err, core.ErrBadBudget),
		errors.Is(err, core.ErrBadTarget),
		errors.Is(err, core.ErrUnknownMonitor):
		return http.StatusBadRequest
	case errors.Is(err, core.ErrInfeasible):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

func decodeRequest(w http.ResponseWriter, r *http.Request, into any) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return false
	}
	return true
}

// solveContext derives the per-request solve context: the request deadline
// (capped at MaxDeadline, defaulting to DefaultDeadline) layered over the
// HTTP request context, so a client disconnect, the deadline, or time spent
// queued all count against the same budget and stop the branch-and-bound.
func (s *Server) solveContext(r *http.Request, deadlineMillis int64) (context.Context, context.CancelFunc, int64) {
	d := s.cfg.DefaultDeadline
	if deadlineMillis > 0 {
		d = time.Duration(deadlineMillis) * time.Millisecond
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, d.Milliseconds()
}

// coalesced serves one request through the flight group: the first request
// for a key becomes the leader and runs compute under its OWN deadline;
// identical concurrent requests follow, waiting under theirs. A follower's
// earlier deadline therefore never truncates the leader's solve — it only
// bounds how long that follower is willing to wait for it. Followers replay
// only shared (proven 200) results; after an error or a deadline-truncated
// leader they retry, each under its own deadline, the first retrier
// becoming the new leader. key is also the request's response-cache key: a
// new leader re-checks the cache before computing, because the previous
// leader may have stored its result and left the group between this
// request's cache miss and its join.
func (s *Server) coalesced(w http.ResponseWriter, ctx context.Context, key string, compute func() reply) {
	if s.cfg.DisableCoalescing {
		writeReply(w, compute())
		return
	}
	for {
		f, leader := s.flights.join(key)
		if s.testJoinHook != nil {
			s.testJoinHook(leader)
		}
		if leader {
			if body, ok := s.cache.get(key); ok {
				s.flights.finish(key, f, http.StatusOK, "hit", body, true)
				s.stats.cacheHits.Add(1)
				writeJSON(w, http.StatusOK, "hit", body)
				return
			}
			published := false
			defer func() {
				if !published {
					// compute panicked: wake followers with a non-shared
					// error so they retry instead of hanging.
					s.flights.finish(key, f, http.StatusInternalServerError, "",
						errReply(http.StatusInternalServerError, errors.New("coalesced solve failed")).body, false)
				}
			}()
			rep := compute()
			s.flights.finish(key, f, rep.status, rep.cache, rep.body, rep.shared)
			published = true
			writeReply(w, rep)
			return
		}
		if !f.wait(ctx) {
			s.stats.timeouts.Add(1)
			writeError(w, http.StatusRequestTimeout,
				fmt.Errorf("deadline expired awaiting coalesced solve: %w", ctx.Err()))
			return
		}
		if f.shared {
			s.stats.coalesced.Add(1)
			writeReply(w, reply{status: f.status, cache: "coalesced", body: f.body})
			return
		}
		// Leader's outcome wasn't replayable; take another lap.
	}
}

// admit runs the fair-admission protocol for one solve, translating the
// outcome into a reply when the request cannot proceed. On success the
// returned release func must be called when the solve slot is no longer
// needed.
func (s *Server) admit(ctx context.Context, tenant string) (release func(), rejected *reply) {
	res, waited := s.adm.admit(ctx, tenant)
	if waited {
		s.stats.queued.Add(1)
	}
	switch res {
	case admitRejected:
		s.stats.rejected.Add(1)
		rep := errReply(http.StatusTooManyRequests, errors.New("admission queue full"))
		rep.retryAfter = "1"
		return nil, &rep
	case admitTimedOut:
		s.stats.timeouts.Add(1)
		rep := errReply(http.StatusRequestTimeout,
			fmt.Errorf("deadline expired while queued for a solve slot: %w", ctx.Err()))
		return nil, &rep
	}
	s.stats.dispatched(tenant)
	if s.testDispatchHook != nil {
		s.testDispatchHook(tenant)
	}
	return func() { s.adm.release() }, nil
}

// indexFor materializes the request's system (or the built-in case study).
func indexFor(sys *model.System) (*model.Index, error) {
	if sys == nil {
		return casestudy.BuildIndex()
	}
	return model.NewIndex(sys)
}

func validTenant(tenant string) error {
	if len(tenant) > maxTenantLen {
		return fmt.Errorf("tenant tag exceeds %d bytes", maxTenantLen)
	}
	return nil
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	var req OptimizeRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if err := validTenant(req.Tenant); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	// The cache and coalescing key deliberately excludes the deadline and
	// the tenant: only proven (deadline-independent) results are stored or
	// shared, so any deadline variant of the same problem from any tenant
	// can ride the same entry or in-flight solve.
	keyReq := req
	keyReq.DeadlineMillis = 0
	keyReq.Tenant = ""
	key, err := requestKey("optimize", &keyReq)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if body, ok := s.cache.get(key); ok {
		s.stats.cacheHits.Add(1)
		writeJSON(w, http.StatusOK, "hit", body)
		return
	}

	ctx, cancel, appliedMillis := s.solveContext(r, req.DeadlineMillis)
	defer cancel()
	s.coalesced(w, ctx, key, func() reply {
		return s.solveOptimize(ctx, &req, key, appliedMillis)
	})
}

// solveOptimize runs one /v1/optimize solve end to end — admission, solver
// construction, the solve itself, certificate verification and cache fill —
// and returns the materialized response.
func (s *Server) solveOptimize(ctx context.Context, req *OptimizeRequest, key string, appliedMillis int64) reply {
	idx, err := indexFor(req.System)
	if err != nil {
		return errReply(http.StatusBadRequest, err)
	}
	fixed := model.NewDeployment()
	for _, id := range req.Existing {
		fixed.Add(id)
	}
	opts := []core.Option{core.WithContext(ctx), core.WithWorkers(req.Workers)}
	switch req.Kernel {
	case "":
	case "sparse", "lu":
		opts = append(opts, core.WithKernel(lp.KernelLU))
	case "eta":
		opts = append(opts, core.WithKernel(lp.KernelEta))
	case "dense":
		opts = append(opts, core.WithDenseKernel())
	default:
		return errReply(http.StatusBadRequest,
			fmt.Errorf("optimize: unknown kernel %q (want sparse, lu, eta or dense)", req.Kernel))
	}
	if req.Clamp {
		opts = append(opts, core.WithClampToAchievable())
	}
	if req.Corroboration > 1 {
		opts = append(opts, core.WithCorroboration(req.Corroboration))
	}
	if req.Certify {
		opts = append(opts, core.WithCertificate())
	}
	switch req.Decompose {
	case "", "auto":
	case "on":
		opts = append(opts, core.WithDecomposition())
	case "off":
		opts = append(opts, core.WithoutDecomposition())
	default:
		return errReply(http.StatusBadRequest,
			fmt.Errorf("optimize: unknown decompose %q (want auto, on or off)", req.Decompose))
	}
	if !req.MinCost {
		if req.Budget == nil && req.BudgetFraction == nil {
			return errReply(http.StatusBadRequest,
				errors.New("optimize: provide budget or budgetFraction"))
		}
	}

	release, rejected := s.admit(ctx, req.Tenant)
	if rejected != nil {
		return *rejected
	}
	defer release()
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	if s.testSolveHook != nil {
		s.testSolveHook("optimize")
	}
	s.stats.solves.Add(1)

	opt := core.NewOptimizer(idx, opts...)
	var res *core.Result
	if req.MinCost {
		target := 1.0
		if req.Target != nil {
			target = *req.Target
		}
		res, err = opt.MinCostIncremental(core.CoverageTargets{Global: target}, fixed)
	} else {
		budget := -1.0
		if req.Budget != nil {
			budget = *req.Budget
		}
		if req.BudgetFraction != nil {
			budget = idx.System().TotalMonitorCost() * *req.BudgetFraction
		}
		res, err = opt.MaxUtilityIncremental(budget, fixed)
	}
	if err != nil {
		return errReply(statusFor(err), err)
	}
	s.stats.recordKernel(&res.Stats)

	// A certified response is never cached (or served) without the server
	// itself re-checking the certificate: the cache must only ever hold
	// proofs that passed the independent verifier.
	verified := false
	if req.Certify && res.Certificate != nil {
		if _, err := certify.Verify(res.Certificate); err != nil {
			return errReply(http.StatusInternalServerError,
				fmt.Errorf("optimize: certificate failed verification: %w", err))
		}
		verified = true
	}

	body, err := json.Marshal(OptimizeResponse{
		Result:              res,
		DeadlineMillis:      appliedMillis,
		CertificateVerified: verified,
	})
	if err != nil {
		return errReply(http.StatusInternalServerError, err)
	}
	shared := res.Proven && (!req.Certify || verified)
	if shared {
		s.cache.put(key, body)
	}
	return reply{status: http.StatusOK, cache: "miss", body: body, shared: shared}
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if err := validTenant(req.Tenant); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	keyReq := req
	keyReq.DeadlineMillis = 0
	keyReq.Tenant = ""
	key, err := requestKey("sweep", &keyReq)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if body, ok := s.cache.get(key); ok {
		s.stats.cacheHits.Add(1)
		writeJSON(w, http.StatusOK, "hit", body)
		return
	}

	ctx, cancel, appliedMillis := s.solveContext(r, req.DeadlineMillis)
	defer cancel()
	s.coalesced(w, ctx, key, func() reply {
		return s.solveSweep(ctx, &req, key, appliedMillis)
	})
}

// solveSweep runs one /v1/sweep end to end. The request hash work is
// hoisted: the full-response key was computed once by the handler, and the
// per-point cache keys share one hashed prefix with only the budget bits
// varying per point. Budget points already proven by an earlier sweep are
// taken from the per-point cache; only the remaining points are solved
// (warm-shared across neighboring budgets unless disabled), and the merged
// curve goes through the same stabilization pass a fresh sweep runs, so the
// response bytes are identical to an uncached solve.
func (s *Server) solveSweep(ctx context.Context, req *SweepRequest, key string, appliedMillis int64) reply {
	idx, err := indexFor(req.System)
	if err != nil {
		return errReply(http.StatusBadRequest, err)
	}
	budgets := req.Budgets
	if len(budgets) == 0 {
		steps := req.Steps
		if steps <= 0 {
			steps = 10
		}
		budgets = core.BudgetGrid(idx, steps)
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	solverWorkers := req.SolverWorkers
	if solverWorkers == 0 {
		solverWorkers = 1
	}

	points := make([]core.SweepPoint, len(budgets))
	havePoint := make([]bool, len(budgets))
	missing := 0
	pointHits := 0
	usePointCache := s.cfg.CacheSize > 0 && !s.cfg.DisableSweepPointCache
	var prefix string
	if usePointCache {
		prefix, err = sweepPointPrefix(req)
		if err != nil {
			usePointCache = false
		}
	}
	for i, b := range budgets {
		if usePointCache {
			if body, ok := s.cache.get(sweepPointKey(prefix, b)); ok {
				if p, ok := decodeSweepPoint(body); ok {
					points[i] = p
					havePoint[i] = true
					pointHits++
					continue
				}
			}
		}
		missing++
	}
	if pointHits > 0 {
		s.stats.sweepPointHits.Add(int64(pointHits))
	}

	opt := core.NewOptimizer(idx, core.WithContext(ctx), core.WithWorkers(solverWorkers))
	if missing > 0 {
		release, rejected := s.admit(ctx, req.Tenant)
		if rejected != nil {
			return *rejected
		}
		defer release()
		s.inFlight.Add(1)
		defer s.inFlight.Add(-1)
		if s.testSolveHook != nil {
			s.testSolveHook("sweep")
		}
		s.stats.solves.Add(1)

		missingBudgets := make([]float64, 0, missing)
		for i, have := range havePoint {
			if !have {
				missingBudgets = append(missingBudgets, budgets[i])
			}
		}
		var solved []core.SweepPoint
		if s.cfg.DisableSweepWarm {
			solved, err = opt.ParetoSweepParallel(missingBudgets, seed, req.Workers)
		} else {
			solved, err = opt.ParetoSweepWarm(missingBudgets, seed, req.Workers)
		}
		if err != nil {
			return errReply(statusFor(err), err)
		}
		for i := range solved {
			if p := solved[i].Optimal; p != nil {
				s.stats.recordKernel(&p.Stats)
			}
		}
		j := 0
		for i, have := range havePoint {
			if !have {
				points[i] = solved[j]
				j++
			}
		}
	}

	// The per-point cache holds raw, budget-local results; the merged curve
	// must go through the same canonicalization a fresh full sweep gets.
	opt.StabilizeSweep(points)

	body, err := json.Marshal(SweepResponse{Points: points, DeadlineMillis: appliedMillis})
	if err != nil {
		return errReply(http.StatusInternalServerError, err)
	}
	allProven := true
	for _, p := range points {
		if p.Optimal == nil || !p.Optimal.Proven {
			allProven = false
			break
		}
	}
	if allProven {
		s.cache.put(key, body)
	}
	if usePointCache {
		for i, p := range points {
			// Only freshly solved, budget-local points enter the per-point
			// cache: a Restated deployment is a function of this request's
			// whole budget grid and would leak into differently shaped
			// sweeps.
			if havePoint[i] || p.Optimal == nil || !p.Optimal.Proven || p.Optimal.Restated {
				continue
			}
			if pb, err := json.Marshal(p); err == nil {
				s.cache.put(sweepPointKey(prefix, budgets[i]), pb)
			}
		}
	}
	header := "miss"
	if pointHits > 0 {
		header = "partial"
	}
	return reply{status: http.StatusOK, cache: header, body: body, shared: allProven}
}

// healthResponse is the body of GET /v1/healthz.
type healthResponse struct {
	Status      string `json:"status"`
	InFlight    int64  `json:"inFlight"`
	CacheSize   int    `json:"cacheSize"`
	CacheHits   int    `json:"cacheHits"`
	CacheMisses int    `json:"cacheMisses"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	size, hits, misses := s.cache.stats()
	body, _ := json.Marshal(healthResponse{
		Status:      "ok",
		InFlight:    s.inFlight.Load(),
		CacheSize:   size,
		CacheHits:   hits,
		CacheMisses: misses,
	})
	writeJSON(w, http.StatusOK, "", body)
}
