// Command perfbench is secmon's benchmark. It runs one named workload in a
// single process against secmon's Go API, checks every output, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics of a traced
// run) as the last line of standard output:
//
//	{"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload plan-cold|serve-mixed|tenant-churn --seed N \
//	    --seconds S --trace 0|1 [--tmp DIR] [--smoke]
//
// The workload's inputs are generated from --seed. Set-up runs at least
// seven times, and more while it has taken under two seconds, and setup_s
// is the median. With --trace 1 the workload runs twice
// for S/2 seconds each, untraced and then traced, from fresh set-ups on the
// same inputs; the per-layer metrics come from the traced pass and
// bench.trace_overhead_share compares the two.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// A plain run times set-up at least setupRepeats times, then again while
// the set-ups so far took under setupBudget, up to setupMaxRepeats; setup_s
// is their median. A quick set-up is repeated more, so its median is as
// steady as a slow one's.
const (
	setupRepeats    = 7
	setupMaxRepeats = 50
	setupBudget     = 2 * time.Second
)

// opRecord is one measured operation.
type opRecord struct {
	class   string
	latency time.Duration
	lag     time.Duration // how late an open-loop send ran; 0 for closed loops
	err     error         // the op failed, was refused, or failed its output check
}

// passResult is what one measured pass of a workload produced.
type passResult struct {
	ops   []opRecord
	win   window
	layer map[string]float64 // per-layer metrics measured by the workload
	notes []string           // report lines: mix shares, sample counts
}

// runner is a set-up workload, ready to measure.
type runner interface {
	// run measures for d, recording spans into tr (nil when untraced).
	run(d time.Duration, tr *tracer) (*passResult, error)
	close() error
}

// env is what a workload's set-up receives.
type env struct {
	seed int64
	tmp  string // scratch directory for files the run writes
	// smoke shrinks the workload's input pools for a quick run.
	smoke bool
	// corrupt, when set, perturbs reference optima before they are used, so
	// tests can prove the output checks are live.
	corrupt bool
}

type workload struct {
	name  string
	limit time.Duration // latency limit behind slo_met_share
	procs int           // GOMAXPROCS, at most the CPUs the host has
	setup func(e env) (runner, error)
}

// The bench host has two CPUs, shared with other work; runs on bigger hosts
// measure the same configuration. The closed loops keep two Ps, so the
// garbage collector runs beside the client as in a default deployment.
// serve-mixed runs on one: its concurrent requests on two Ps made latency
// depend on whether both host CPUs were free at once (p95 IQR/median 0.140
// with two Ps, 0.078 with one, over six seeds run in alternation).
var workloads = []workload{
	{name: "plan-cold", limit: planLimit, procs: 2, setup: setupPlanCold},
	{name: "serve-mixed", limit: serveLimit, procs: 1, setup: setupServe},
	{name: "tenant-churn", limit: churnLimit, procs: 2, setup: setupChurn},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"slo_met_share", "share"},
	{"cpu_ms_per_op", "ms"},
	{"rss_p90_mb", "MB"},
}

// perLayer lists the per-layer metrics of a traced run with their units. A
// layer a workload does not reach reports 0.
var perLayer = []struct{ name, unit string }{
	{"server.hit_share", "share"},
	{"server.partial_share", "share"},
	{"server.coalesced_share", "share"},
	{"server.hit_ms_p50", "ms"},
	{"server.solves_per_request", "count"},
	{"server.duplicate_miss_share", "share"},
	{"server.queued_share", "share"},
	{"server.rejected_share", "share"},
	{"server.timeout_share", "share"},
	{"server.optimize_miss_ms_p50", "ms"},
	{"server.sweep_ms_p50", "ms"},
	{"campaign.simulate_ms_p50", "ms"},
	{"campaign.events_per_s", "1/s"},
	{"core.small_ms_p50", "ms"},
	{"core.mid_ms_p50", "ms"},
	{"core.sweep_ms", "ms"},
	{"core.scale_maxutil_ms", "ms"},
	{"core.scale_mincost_ms", "ms"},
	{"plan.small_time_share", "share"},
	{"plan.mid_time_share", "share"},
	{"plan.scale_time_share", "share"},
	{"decomp.segments", "count"},
	{"decomp.iterations", "count"},
	{"decomp.master_solves", "count"},
	{"decomp.subproblem_solves", "count"},
	{"decomp.oracle_fallbacks", "count"},
	{"model.index_ms", "ms"},
	{"ilp.nodes_per_solve", "count"},
	{"ilp.cuts_added_per_solve", "count"},
	{"ilp.presolve_fixed_per_solve", "count"},
	{"ilp.warm_hit_share", "share"},
	{"lp.iterations_per_solve", "count"},
	{"lp.small_us_per_iteration", "us"},
	{"lp.mid_us_per_iteration", "us"},
	{"lp.eta_solve_share", "share"},
	{"lp.ft_updates_per_solve", "count"},
	{"lp.refactorizations_per_solve", "count"},
	{"lp.adaptive_refactor_share", "share"},
	{"lp.bound_flips_per_solve", "count"},
	{"lp.kernel_fallbacks_per_solve", "count"},
	{"state.shortcut_share", "share"},
	{"state.warm_hit_share", "share"},
	{"state.full_resolve_share", "share"},
	{"state.log_bytes_per_mutation", "bytes"},
	{"state.shortcut_ms_p50", "ms"},
	{"state.warm_ms_p50", "ms"},
	{"state.full_ms_p50", "ms"},
	{"state.create_ms", "ms"},
	{"state.replay_ms", "ms"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_cpu_share", "share"},
	{"runtime.sched_latency_p99_ms", "ms"},
	{"bench.dispatch_lag_p99_ms", "ms"},
	{"bench.trace_overhead_share", "share"},
	{"bench.op_self_share", "share"},
	{"host.steal_share", "share"},
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli runs the benchmark and returns the process exit code.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "plan-cold", "workload: plan-cold, serve-mixed or tenant-churn")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer measurement")
	tmp := fs.String("tmp", ".bench_build/tmp", "directory for files the run writes")
	smoke := fs.Bool("smoke", false, "shrink the input pools for a quick check run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(min(w.procs, runtime.NumCPU()))

	e := env{seed: *seed, tmp: *tmp, smoke: *smoke}
	d := time.Duration(*seconds * float64(time.Second))
	var res *result
	var err error
	if *traceFlag == 1 {
		res, err = runTraced(w, e, d, stdout)
	} else {
		res, err = runPlain(w, e, d, setupRepeats, setupBudget, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// setupTimed runs the workload's set-up and times it. A full collection
// first gives every set-up, and the measured pass after it, the same
// starting heap.
func setupTimed(w workload, e env) (runner, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	r, err := w.setup(e)
	return r, time.Since(t0), err
}

// runPlain measures the end-to-end metrics: set-up at least k times and
// until budget is spent (setup_s is the median), then one untraced pass.
func runPlain(w workload, e env, d time.Duration, k int, budget time.Duration, out io.Writer) (*result, error) {
	var r runner
	var setups []float64
	var spent time.Duration
	base := e.tmp
	for i := 0; i < k || (spent < budget && i < setupMaxRepeats); i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		var err error
		e.tmp = runDir(base, w.name, fmt.Sprintf("setup%d", i))
		r, took, err = setupTimed(w, e)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, took.Seconds())
		spent += took
	}
	runtime.GC()
	pass, runErr := r.run(d, nil)
	if err := r.close(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		return nil, runErr
	}
	res := newResult(pass.ops)
	m := endToEndMetrics(w, pass, median(setups))
	res.Metrics = m
	report(out, w, pass, m, fmt.Sprintf("setup_s is the median of %d set-ups: %s", len(setups), fmtSeconds(setups)))
	return res, nil
}

// runDir names a set-up's own directory under base; a runner that writes
// files there removes it on close.
func runDir(base, workload, part string) string {
	return filepath.Join(base, fmt.Sprintf("%s-%d-%s", workload, os.Getpid(), part))
}

func fmtSeconds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3fs", x)
	}
	return strings.Join(parts, " ")
}

// runTraced measures the per-layer metrics: an untraced and a traced pass of
// d/2 each, from fresh set-ups on the same inputs.
func runTraced(w workload, e env, d time.Duration, out io.Writer) (*result, error) {
	half := d / 2
	var passes [2]*passResult
	var tr *tracer
	for i := range passes {
		pe := e
		pe.tmp = runDir(e.tmp, w.name, fmt.Sprintf("pass%d", i))
		r, _, err := setupTimed(w, pe)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if i == 1 {
			tr = newTracer()
		}
		runtime.GC()
		p, runErr := r.run(half, tr)
		if err := r.close(); err != nil && runErr == nil {
			runErr = err
		}
		if runErr != nil {
			return nil, runErr
		}
		passes[i] = p
	}
	plain, traced := passes[0], passes[1]
	res := newResult(append(append([]opRecord(nil), plain.ops...), traced.ops...))

	layer := map[string]float64{}
	for k, v := range traced.layer {
		layer[k] = v
	}
	win := traced.win
	n := float64(len(traced.ops))
	layer["runtime.alloc_mb_per_op"] = ratio(win.rt.allocBytes/(1<<20), n)
	layer["runtime.gc_cycles_per_op"] = ratio(win.rt.gcCycles, n)
	layer["runtime.gc_cpu_share"] = ratio(win.rt.gcCPU, win.rt.totalCPU)
	layer["runtime.sched_latency_p99_ms"] = win.rt.schedP99MS()
	layer["bench.dispatch_lag_p99_ms"] = lagP99(traced.ops)
	layer["bench.trace_overhead_share"] = traceOverhead(plain.ops, traced.ops)
	spans := tr.spans()
	layer["bench.op_self_share"] = rootSelfShare(spans)
	layer["host.steal_share"] = max(win.stealShare, 0)

	res.Metrics = map[string]metric{}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: layer[m.name], Unit: m.unit}
	}
	path, err := writeTrace(e.tmp, w.name, e.seed, spans)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s seed %d traced: %d spans written to %s\n", w.name, e.seed, len(spans), path)
	for _, s := range summarize(spans) {
		fmt.Fprintf(out, "  span %-28s n=%-6d total %10.1f ms  self %10.1f ms  p50 %8.3f ms\n",
			s.Name, s.Count, s.TotalMS, s.SelfMS, s.P50MS)
	}
	for _, note := range traced.notes {
		fmt.Fprintln(out, "  "+note)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-32s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	return res, nil
}

func newResult(ops []opRecord) *result {
	res := &result{Correct: true, Attempted: len(ops)}
	for _, op := range ops {
		if op.err != nil {
			res.Failed++
			res.Correct = false
		}
	}
	return res
}

// endToEndMetrics derives the end-to-end metrics of one pass.
func endToEndMetrics(w workload, p *passResult, setupS float64) map[string]metric {
	var lat []float64
	okOps, slo := 0, 0
	for _, op := range p.ops {
		if op.err != nil {
			continue
		}
		okOps++
		lat = append(lat, ms(op.latency))
		if op.latency <= w.limit {
			slo++
		}
	}
	attempted := float64(len(p.ops))
	vals := map[string]float64{
		"setup_s":        setupS,
		"throughput_rps": ratio(float64(okOps), p.win.active.Seconds()),
		"latency_p50_ms": quantile(lat, 0.5),
		"latency_p95_ms": quantile(lat, 0.95),
		"slo_met_share":  ratio(float64(slo), attempted),
		"cpu_ms_per_op":  ratio(ms(p.win.cpu), attempted),
		"rss_p90_mb":     p.win.rssP90MB,
	}
	out := make(map[string]metric, len(endToEnd))
	for _, m := range endToEnd {
		out[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return out
}

// report prints the human-readable run report: every end-to-end metric with
// its unit and sample count, the workload's notes, and host health.
func report(out io.Writer, w workload, p *passResult, m map[string]metric, setupNote string) {
	n := 0
	for _, op := range p.ops {
		if op.err == nil {
			n++
		}
	}
	beyond := int(float64(n) * 0.05)
	fmt.Fprintf(out, "%s: %d ops attempted, %d ok, measured %.2fs active\n", w.name, len(p.ops), n, p.win.active.Seconds())
	for _, e := range endToEnd {
		note := ""
		switch e.name {
		case "latency_p50_ms", "latency_p95_ms":
			note = fmt.Sprintf("(n=%d, %d beyond p95)", n, beyond)
		case "slo_met_share":
			note = fmt.Sprintf("(limit %v)", w.limit)
		case "rss_p90_mb":
			note = fmt.Sprintf("(%d samples)", p.win.rssSamples)
		case "setup_s":
			note = "(" + setupNote + ")"
		}
		fmt.Fprintf(out, "  %-16s %12.4f %-5s %s\n", e.name, m[e.name].Value, m[e.name].Unit, note)
	}
	if beyond < 10 {
		fmt.Fprintf(out, "  warning: only %d samples beyond p95; run longer\n", beyond)
	}
	for _, note := range p.notes {
		fmt.Fprintln(out, "  "+note)
	}
	fmt.Fprintln(out, "  "+classLatencies(p.ops))
	steal := "unreadable"
	if p.win.stealShare >= 0 {
		steal = fmt.Sprintf("%.4f", p.win.stealShare)
	}
	fmt.Fprintf(out, "  health: bench.dispatch_lag_p99_ms %.3f, runtime.sched_latency_p99_ms %.3f, host.steal_share %s\n",
		lagP99(p.ops), p.win.rt.schedP99MS(), steal)
	errs := 0
	for _, op := range p.ops {
		if op.err != nil {
			if errs < 10 {
				fmt.Fprintf(out, "  FAILED %s: %v\n", op.class, op.err)
			}
			errs++
		}
	}
	if errs > 0 {
		fmt.Fprintf(out, "  %d ops failed\n", errs)
	}
}

// classLatencies summarizes op latency by class: share of ops and median.
func classLatencies(ops []opRecord) string {
	byClass := map[string][]float64{}
	for _, op := range ops {
		byClass[op.class] = append(byClass[op.class], ms(op.latency))
	}
	names := make([]string, 0, len(byClass))
	for k := range byClass {
		names = append(names, k)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, k := range names {
		parts[i] = fmt.Sprintf("%s %.3f/%.2fms", k, float64(len(byClass[k]))/float64(len(ops)), median(byClass[k]))
	}
	return "op share/median latency by class: " + strings.Join(parts, ", ")
}

func lagP99(ops []opRecord) float64 {
	lags := make([]float64, len(ops))
	for i, op := range ops {
		lags[i] = ms(op.lag)
	}
	return quantile(lags, 0.99)
}

// traceOverhead compares the mean latency of the same operations in the
// untraced and the traced pass: both passes run the same inputs in the same
// order, so their common prefix is paired op for op.
func traceOverhead(plain, traced []opRecord) float64 {
	n := min(len(plain), len(traced))
	var a, b float64
	for i := 0; i < n; i++ {
		a += ms(plain[i].latency)
		b += ms(traced[i].latency)
	}
	return ratio(b-a, a)
}

// checkFail reports an output-check failure.
func checkFail(format string, args ...any) error {
	return fmt.Errorf("output check failed: "+format, args...)
}
