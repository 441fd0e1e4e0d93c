package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"secmon/internal/core"
	"secmon/internal/server"
	"secmon/internal/state"
	"secmon/internal/synth"
)

// specRow is one request of TestSpecSurfaces, spelled for each surface:
// optimize flags, /v1/optimize body members and a tenant spec (nil where a
// tenant spec cannot say it). The spellings deliberately mix aliases.
type specRow struct {
	name   string
	flags  []string
	body   string
	tenant *state.SolveSpec
	bad    bool
	// What a valid row's solve must show: the kernel pin in the kernel
	// counters ("" unchecked), the worker count, and decomposition stats.
	kernel     string
	workers    int
	decomposed bool
}

// solveShape is what TestSpecSurfaces reads off a solve on every surface.
type solveShape struct {
	etas, factorNnz, workers int
	decomposed               bool
}

func shapeOf(st core.SolveStats) solveShape {
	return solveShape{st.Etas, st.FactorNnz, st.Workers, st.Decomposition != nil}
}

var (
	cliEtas    = regexp.MustCompile(`sparse kernel: (\d+) etas`)
	cliNnz     = regexp.MustCompile(`(\d+) factor nonzeros`)
	cliWorkers = regexp.MustCompile(`\((\d+) workers\)`)
)

// cliShape reads the solve shape off `secmon optimize` output.
func cliShape(out string) solveShape {
	num := func(re *regexp.Regexp) int {
		if m := re.FindStringSubmatch(out); m != nil {
			n, _ := strconv.Atoi(m[1])
			return n
		}
		return 0
	}
	return solveShape{num(cliEtas), num(cliNnz), num(cliWorkers), strings.Contains(out, "\ndecomposition: ")}
}

// TestSpecSurfaces feeds one table of request specs to the three surfaces
// that decode them: `secmon optimize`, POST /v1/optimize and the tenant
// store. Bad specs (unknown kernel or decompose mode, negative
// corroboration, workers or budget, no budget on a MaxUtility spec, a
// target outside [0, 1]) are refused by all three: the CLI errors, the
// server answers 400 before its cache lookup (so before any flight join)
// and before admission, and Store.Create/Mutate return ErrInvalid. Valid
// specs decode to one canonical spec on every surface, and each setting
// reaches the solve: the kernel pin in the eta and LU counters, workers in
// Stats.Workers (one when unset), decompose "on" in Stats.Decomposition.
func TestSpecSurfaces(t *testing.T) {
	sys, err := synth.Generate(synth.Config{Seed: 17, Monitors: 60, Attacks: 30, Segments: 3, CrossFraction: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	modelPath := filepath.Join(t.TempDir(), "model.json")
	raw, err := json.Marshal(sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(modelPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	budget := 0.3 * sys.TotalMonitorCost()
	b := strconv.FormatFloat(budget, 'g', -1, 64)
	tenant := func(s state.SolveSpec) *state.SolveSpec { return &s }

	rows := []specRow{
		{name: "unknown kernel", bad: true, flags: []string{"-budget", b, "-kernel", "simplex"},
			body: `"budget":` + b + `,"kernel":"simplex"`, tenant: tenant(state.SolveSpec{Budget: budget, Kernel: "simplex"})},
		{name: "unknown decompose", bad: true, flags: []string{"-budget", b, "-decompose", "sideways"},
			body: `"budget":` + b + `,"decompose":"sideways"`},
		{name: "negative corroboration", bad: true, flags: []string{"-budget", b, "-corroboration", "-4"},
			body: `"budget":` + b + `,"corroboration":-4`, tenant: tenant(state.SolveSpec{Budget: budget, Corroboration: -4})},
		{name: "negative workers", bad: true, flags: []string{"-budget", b, "-workers", "-2"},
			body: `"budget":` + b + `,"workers":-2`, tenant: tenant(state.SolveSpec{Budget: budget, Workers: -2})},
		{name: "no budget", bad: true, flags: nil, body: `"kernel":"lu"`},
		{name: "negative budget", bad: true, flags: []string{"-budget", "-1"},
			body: `"budget":-1`, tenant: tenant(state.SolveSpec{Budget: -1})},
		{name: "target above 1", bad: true, flags: []string{"-min-cost", "-target", "1.5"},
			body: `"minCost":true,"target":1.5`, tenant: tenant(state.SolveSpec{MinCost: true, Target: 1.5})},

		{name: "lu pin, default workers", flags: []string{"-budget", b, "-kernel", "sparse", "-workers", "0"},
			body: `"budget":` + b + `,"kernel":"lu"`, tenant: tenant(state.SolveSpec{Budget: budget, Kernel: "sparse"}),
			kernel: "lu", workers: 1},
		{name: "eta pin, two workers", flags: []string{"-budget", b, "-kernel", "eta", "-workers", "2"},
			body: `"budget":` + b + `,"kernel":"eta","workers":2`, tenant: tenant(state.SolveSpec{Budget: budget, Kernel: "eta", Workers: 2}),
			kernel: "eta", workers: 2},
		{name: "dense min-cost", flags: []string{"-min-cost", "-target", "0.5", "-kernel", "dense", "-corroboration", "1"},
			body:   `"minCost":true,"target":0.5,"kernel":"dense"`,
			tenant: tenant(state.SolveSpec{MinCost: true, Target: 0.5, Kernel: "dense", Corroboration: 1, Workers: 1}),
			kernel: "dense", workers: 1},
		{name: "decompose on", flags: []string{"-budget", b, "-decompose", "on"},
			body: `"budget":` + b + `,"decompose":"on","corroboration":1`, workers: 1, decomposed: true},
	}

	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	store, err := state.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var cliSpec core.Spec
	optimizeSpecHook = func(s core.Spec) { cliSpec = s }
	defer func() { optimizeSpecHook = nil }()

	for i, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			// CLI.
			cliSpec = core.Spec{}
			out, cliErr := runCLI(t, append([]string{"optimize", "-model", modelPath}, row.flags...)...)
			// Server: the handler's own decoding, then the live endpoint.
			body := fmt.Sprintf(`{"system":%s,%s}`, raw, row.body)
			var req server.OptimizeRequest
			dec := json.NewDecoder(strings.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&req); err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var got server.OptimizeResponse
			decErr := json.NewDecoder(resp.Body).Decode(&got)
			resp.Body.Close()
			// Tenant.
			var tn *state.Tenant
			var tnErr error
			if row.tenant != nil {
				tn, tnErr = store.Create(fmt.Sprintf("row-%d", i), sys, *row.tenant)
			}

			if row.bad {
				if cliErr == nil {
					t.Errorf("optimize accepted the spec:\n%s", out)
				}
				if resp.StatusCode != http.StatusBadRequest {
					t.Errorf("/v1/optimize status %d, want 400", resp.StatusCode)
				}
				if row.tenant != nil && !errors.Is(tnErr, state.ErrInvalid) {
					t.Errorf("Store.Create error %v, want ErrInvalid", tnErr)
				}
				return
			}

			if cliErr != nil || resp.StatusCode != http.StatusOK || decErr != nil || tnErr != nil {
				t.Fatalf("valid spec refused: cli %v, server %d %v, tenant %v", cliErr, resp.StatusCode, decErr, tnErr)
			}
			want := cliSpec.Canonical()
			canon := map[string]core.Spec{"server": req.Spec.Canonical()}
			shapes := map[string]solveShape{"cli": cliShape(out), "server": shapeOf(got.Result.Stats)}
			if tn != nil {
				canon["tenant"] = tn.Spec().CoreSpec().Canonical()
				shapes["tenant"] = shapeOf(tn.Last().Stats)
			}
			for surface, spec := range canon {
				if spec.Hash() != want.Hash() {
					g, _ := json.Marshal(spec)
					w, _ := json.Marshal(want)
					t.Errorf("%s canonical spec %s, CLI's %s", surface, g, w)
				}
			}
			for surface, sh := range shapes {
				kernelOK := map[string]bool{
					"":      true,
					"lu":    sh.etas == 0 && sh.factorNnz > 0,
					"eta":   sh.etas > 0 && sh.factorNnz == 0,
					"dense": sh.etas == 0 && sh.factorNnz == 0,
				}[row.kernel]
				if !kernelOK || sh.workers != row.workers || sh.decomposed != row.decomposed {
					t.Errorf("%s solve shows %+v; want kernel %q, %d workers, decomposed %v",
						surface, sh, row.kernel, row.workers, row.decomposed)
				}
			}
		})
	}

	// The bad rows never reached the cache or a solve slot, and a tenant
	// mutation that would leave an invalid spec is refused.
	var stats struct {
		Solves  int64            `json:"solves"`
		Tenants map[string]int64 `json:"tenants"`
	}
	var health struct {
		CacheMisses int `json:"cacheMisses"`
	}
	for path, into := range map[string]any{"/v1/stats": &stats, "/v1/healthz": &health} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	valid := 0
	for _, row := range rows {
		if !row.bad {
			valid++
		}
	}
	// Each valid request misses the cache twice: the handler's lookup and
	// its flight leader's recheck.
	if stats.Solves != int64(valid) || stats.Tenants["default"] != int64(valid) || health.CacheMisses != 2*valid {
		t.Errorf("server: %d solves, %d slot grants, %d cache misses; want %d, %d and %d (valid rows only)",
			stats.Solves, stats.Tenants["default"], health.CacheMisses, valid, valid, 2*valid)
	}
	tn, ok := store.Tenant("row-7") // lu pin, default workers
	if !ok {
		t.Fatal("no tenant for the lu pin row")
	}
	neg := -1.0
	if _, err := tn.Mutate([]state.Delta{{Op: state.OpUpdateBudget, Budget: &neg}}); !errors.Is(err, state.ErrInvalid) {
		t.Errorf("Mutate to a negative budget: %v, want ErrInvalid", err)
	}
}
