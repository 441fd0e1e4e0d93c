package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"secmon/internal/campaign"
	"secmon/internal/model"
)

// SimulateRequest is the body of POST /v1/simulate: a seeded campaign replay
// of the system's attack library against a deployment, with optional
// convergence checking against the analytic metrics. Omitting the system
// selects the built-in enterprise Web service case study.
type SimulateRequest struct {
	System *model.System `json:"system,omitempty"`
	// Monitors is the deployment to validate; All deploys every monitor and
	// wins over Monitors. An empty deployment is legal (it detects nothing).
	Monitors []model.MonitorID `json:"monitors,omitempty"`
	All      bool              `json:"all,omitempty"`
	// Seed, Trials, Warmup, Workers, ArrivalRate, BenignRate, DwellMean,
	// ManifestProb, CaptureProb, LateralProb and Batches map onto
	// campaign.Config; zero values select its documented defaults. Replays
	// are deterministic in everything except Workers, which only changes
	// wall-clock time — the summary bytes are identical for any worker
	// count.
	Seed         int64   `json:"seed,omitempty"`
	Trials       int     `json:"trials,omitempty"`
	Warmup       int     `json:"warmup,omitempty"`
	Workers      int     `json:"workers,omitempty"`
	ArrivalRate  float64 `json:"arrivalRate,omitempty"`
	BenignRate   float64 `json:"benignRate,omitempty"`
	DwellMean    float64 `json:"dwellMean,omitempty"`
	ManifestProb float64 `json:"manifestProb,omitempty"`
	CaptureProb  float64 `json:"captureProb,omitempty"`
	LateralProb  float64 `json:"lateralProb,omitempty"`
	Batches      int     `json:"batches,omitempty"`
	// Check additionally computes the analytic prediction and reports every
	// estimator that diverged from it beyond its confidence bounds.
	Check bool `json:"check,omitempty"`
	// Tenant tags the request for fair admission; see
	// OptimizeRequest.Tenant.
	Tenant         string `json:"tenant,omitempty"`
	DeadlineMillis int64  `json:"deadlineMillis,omitempty"`
}

// SimulateResponse is the body of a successful POST /v1/simulate.
type SimulateResponse struct {
	Summary *campaign.Summary `json:"summary"`
	// Analytic, Divergences and Converged are present only when the request
	// asked for a convergence check. Converged false with a populated
	// Divergences list means the replay measurably disagreed with the
	// analytic metrics — a reportable bug, not a statistical flake.
	Analytic       *campaign.Prediction  `json:"analytic,omitempty"`
	Divergences    []campaign.Divergence `json:"divergences,omitempty"`
	Converged      *bool                 `json:"converged,omitempty"`
	DeadlineMillis int64                 `json:"deadlineMillis"`
}

// simulateStatusFor maps campaign errors onto HTTP statuses.
func simulateStatusFor(err error) int {
	switch {
	case errors.Is(err, campaign.ErrBadConfig):
		return http.StatusBadRequest
	case errors.Is(err, campaign.ErrNoAttacks):
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusRequestTimeout
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if err := validTenant(req.Tenant); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	// Same keying discipline as /v1/optimize: the deadline and the tenant
	// stay out of the cache and coalescing key. A seeded replay is fully
	// deterministic, so any deadline variant of the same request from any
	// tenant can share one run and one cache entry.
	keyReq := req
	keyReq.DeadlineMillis = 0
	keyReq.Tenant = ""
	s.serveKeyed(w, r, "simulate", &keyReq, req.DeadlineMillis,
		func(ctx context.Context, key string, appliedMillis int64) reply {
			return s.runSimulate(ctx, &req, key, appliedMillis)
		})
}

// runSimulate executes one /v1/simulate replay end to end — admission, the
// engine run, the optional convergence check and the cache fill — and
// returns the materialized response.
func (s *Server) runSimulate(ctx context.Context, req *SimulateRequest, key string, appliedMillis int64) reply {
	idx, err := indexFor(req.System)
	if err != nil {
		return errReply(http.StatusBadRequest, err)
	}
	d := model.NewDeployment()
	if req.All {
		d = model.NewDeployment(idx.MonitorIDs()...)
	} else {
		for _, id := range req.Monitors {
			if _, ok := idx.Monitor(id); !ok {
				return errReply(http.StatusBadRequest,
					fmt.Errorf("simulate: unknown monitor %q", id))
			}
			d.Add(id)
		}
	}
	cfg := campaign.Config{
		Seed:         req.Seed,
		Trials:       req.Trials,
		Warmup:       req.Warmup,
		Workers:      req.Workers,
		ArrivalRate:  req.ArrivalRate,
		BenignRate:   req.BenignRate,
		DwellMean:    req.DwellMean,
		ManifestProb: req.ManifestProb,
		CaptureProb:  req.CaptureProb,
		LateralProb:  req.LateralProb,
		Batches:      req.Batches,
	}

	release, rejected := s.admit(ctx, req.Tenant)
	if rejected != nil {
		return *rejected
	}
	defer release()
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	s.stats.simulations.Add(1)

	sum, err := campaign.RunContext(ctx, idx, d, cfg)
	if err != nil {
		return errReply(simulateStatusFor(err), err)
	}
	resp := SimulateResponse{Summary: sum, DeadlineMillis: appliedMillis}
	if req.Check {
		pred, err := campaign.Analytic(idx, d, cfg)
		if err != nil {
			return errReply(simulateStatusFor(err), err)
		}
		div := pred.Check(sum)
		converged := len(div) == 0
		resp.Analytic = pred
		resp.Divergences = div
		resp.Converged = &converged
	}
	body, err := json.Marshal(resp)
	if err != nil {
		return errReply(http.StatusInternalServerError, err)
	}
	// Seeded replays are deterministic and deadline-independent once they
	// complete, so every finished 200 is shareable and cacheable.
	s.cache.put(key, body)
	return reply{status: http.StatusOK, cache: "miss", body: body, shared: true}
}
