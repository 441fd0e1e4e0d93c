package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"secmon/internal/state"
)

// deltaFlags collects repeated -delta arguments, each one delta as a JSON
// object; all deltas given on one invocation commit as a single atomic batch.
type deltaFlags struct {
	deltas []state.Delta
}

func (f *deltaFlags) String() string { return fmt.Sprintf("%d deltas", len(f.deltas)) }

func (f *deltaFlags) Set(v string) error {
	var d state.Delta
	dec := json.NewDecoder(strings.NewReader(v))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return fmt.Errorf("bad delta %q: %w", v, err)
	}
	f.deltas = append(f.deltas, d)
	return nil
}

// cmdMutate drives a tenant state store directly from the command line:
// optionally create a tenant, then apply the given deltas as one atomic
// batch. Every committed batch is durable in the tenant's event log before
// its result prints, so a later `secmon replay` (or `serve -state-dir`)
// rebuilds the identical state.
func cmdMutate(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mutate", flag.ContinueOnError)
	stateDir := fs.String("state-dir", "", "tenant state directory (required)")
	tenant := fs.String("tenant", "", "tenant id (required)")
	create := fs.Bool("create", false, "create the tenant before applying deltas")
	modelPath := fs.String("model", "", "JSON system model for -create (default: case study)")
	// The tenant's spec for -create; replay is bit-identical only at one
	// worker, and certified tenants never reuse solver state.
	spec := specFlags(fs)
	deltasFile := fs.String("deltas", "", "file holding a JSON array of deltas ('-' reads stdin)")
	var deltas deltaFlags
	fs.Var(&deltas, "delta", "one delta as a JSON object (repeatable; the batch commits atomically)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *stateDir == "" {
		return fmt.Errorf("mutate: -state-dir is required")
	}
	if *tenant == "" {
		return fmt.Errorf("mutate: -tenant is required")
	}
	batch := deltas.deltas
	if *deltasFile != "" {
		fromFile, err := readDeltaFile(*deltasFile)
		if err != nil {
			return err
		}
		batch = append(batch, fromFile...)
	}

	store, err := state.Open(*stateDir)
	if err != nil {
		return fmt.Errorf("mutate: %w", err)
	}
	defer store.Close()

	tn, ok := store.Tenant(*tenant)
	switch {
	case *create:
		if ok {
			return fmt.Errorf("mutate: tenant %q already exists in %s", *tenant, *stateDir)
		}
		idx, err := loadIndex(*modelPath)
		if err != nil {
			return err
		}
		if err := checkSpec(spec); err != nil {
			return fmt.Errorf("mutate: -create: %w", err)
		}
		ss := state.SolveSpec{MinCost: spec.MinCost, Corroboration: spec.Corroboration,
			Workers: spec.Workers, Kernel: spec.Kernel, Certify: spec.Certify}
		if spec.MinCost {
			ss.Target = spec.Targets().Global
		} else {
			ss.Budget = spec.BudgetOn(idx)
		}
		tn, err = store.Create(*tenant, idx.System(), ss)
		if err != nil {
			return fmt.Errorf("mutate: create %q: %w", *tenant, err)
		}
		fmt.Fprintf(out, "created tenant %q\n", *tenant)
	case !ok:
		return fmt.Errorf("mutate: no tenant %q in %s (use -create)", *tenant, *stateDir)
	}

	if len(batch) > 0 {
		if _, err := tn.Mutate(batch); err != nil {
			return fmt.Errorf("mutate: %w", err)
		}
		fmt.Fprintf(out, "committed %d delta(s) as one batch\n", len(batch))
	} else if !*create {
		return fmt.Errorf("mutate: no deltas given (use -delta or -deltas)")
	}
	printTenant(out, tn)
	return nil
}

// readDeltaFile parses a JSON array of deltas from path ("-" for stdin).
func readDeltaFile(path string) ([]state.Delta, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("mutate: %w", err)
		}
		defer f.Close()
		r = f
	}
	var out []state.Delta
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&out); err != nil {
		return nil, fmt.Errorf("mutate: parse deltas from %s: %w", path, err)
	}
	return out, nil
}

// cmdReplay opens a state directory — which replays every tenant's event log
// from scratch, discarding any torn tail — and reports what was rebuilt.
// Because replay re-runs the exact mutation pipeline, the printed results
// are the ones the original process computed, bit for bit (at workers=1).
func cmdReplay(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	stateDir := fs.String("state-dir", "", "tenant state directory (required)")
	tenant := fs.String("tenant", "", "report only this tenant")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *stateDir == "" {
		return fmt.Errorf("replay: -state-dir is required")
	}
	store, err := state.Open(*stateDir)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	defer store.Close()

	ids := store.Tenants()
	if *tenant != "" {
		if _, ok := store.Tenant(*tenant); !ok {
			return fmt.Errorf("replay: no tenant %q in %s", *tenant, *stateDir)
		}
		ids = []string{*tenant}
	}
	snap := store.Stats()
	fmt.Fprintf(out, "replayed %d tenant log(s) from %s (%d torn tails discarded)\n",
		snap.Replays, *stateDir, snap.Recovered)
	for _, id := range ids {
		tn, _ := store.Tenant(id)
		printTenant(out, tn)
	}
	return nil
}

// printTenant reports a tenant's version, spec and current result in the
// same shape `secmon optimize` uses.
func printTenant(out io.Writer, tn *state.Tenant) {
	spec := tn.Spec()
	mode := fmt.Sprintf("max-utility budget %.2f", spec.Budget)
	if spec.MinCost {
		mode = fmt.Sprintf("min-cost target %.2f", spec.Target)
	}
	fmt.Fprintf(out, "tenant %s @ version %d (%s)\n", tn.ID(), tn.Version(), mode)
	res := tn.Last()
	if res == nil {
		fmt.Fprintln(out, "  no solve result yet")
		return
	}
	fmt.Fprintf(out, "  deployment (%d monitors): %s\n", len(res.Monitors), joinIDs(res.Monitors))
	fmt.Fprintf(out, "  utility %.4f  cost %.2f  proven-optimal %v\n", res.Utility, res.Cost, res.Proven)
	printSolverExtras(out, res.Stats)
}
