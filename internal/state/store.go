package state

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"secmon/internal/core"
	"secmon/internal/model"
)

// Sentinel errors callers (the HTTP layer in particular) can map onto their
// own status codes with errors.Is.
var (
	// ErrTenantExists rejects creating a tenant whose id is already live or
	// already has a log on disk.
	ErrTenantExists = errors.New("state: tenant already exists")
	// ErrInvalid marks caller mistakes — malformed deltas, dangling
	// references, an invalid system or spec — as opposed to I/O or solver
	// failures.
	ErrInvalid = errors.New("state: invalid input")
)

// Store owns a directory of per-tenant event logs. Opening a store replays
// every log it finds, rebuilding each tenant's live state — model, spec,
// last result, warm-start chain — exactly as the process that wrote the log
// held it (bit-identically at one solver worker; see SolveSpec.Workers).
type Store struct {
	dir   string
	runID string
	stats Stats

	mu      sync.Mutex
	tenants map[string]*Tenant
	closed  bool
}

// logSuffix names tenant logs: <dir>/<tenantID>.log.
const logSuffix = ".log"

// maxTenantID bounds tenant identifiers; they double as file names.
const maxTenantID = 64

// ValidTenantID reports whether id is usable as a tenant identifier:
// non-empty, at most 64 bytes, and drawn from [a-zA-Z0-9._-] with a leading
// letter or digit (so it cannot traverse paths or hide as a dotfile).
func ValidTenantID(id string) bool {
	if id == "" || len(id) > maxTenantID {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case (c == '.' || c == '_' || c == '-') && i > 0:
		default:
			return false
		}
	}
	return true
}

// Open loads (creating if absent) a state directory and replays every tenant
// log in it. Replay failures are hard errors: a store that cannot rebuild
// all of its tenants refuses to open rather than silently dropping state.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("state: open %s: %w", dir, err)
	}
	runID := newRunID()
	s := &Store{dir: dir, runID: runID, tenants: map[string]*Tenant{}}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("state: open %s: %w", dir, err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), logSuffix) {
			names = append(names, strings.TrimSuffix(e.Name(), logSuffix))
		}
	}
	sort.Strings(names)
	for _, id := range names {
		if !ValidTenantID(id) {
			return nil, fmt.Errorf("state: %s holds log for invalid tenant id %q", dir, id)
		}
		t, err := s.replayTenant(id)
		if err != nil {
			return nil, fmt.Errorf("state: replay tenant %q: %w", id, err)
		}
		if t == nil {
			continue // torn create, discarded
		}
		s.tenants[id] = t
	}
	return s, nil
}

func newRunID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Entropy exhaustion is not survivable in any interesting way; a
		// constant keeps the log well-formed.
		return "run-0000000000000000"
	}
	return "run-" + hex.EncodeToString(b[:])
}

// RunID identifies this store instance; every record written by this process
// carries it, so a log's history attributes each mutation to the run that
// made it.
func (s *Store) RunID() string { return s.runID }

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the store's incremental-solve counters.
func (s *Store) Stats() Snapshot { return s.stats.snapshot() }

func (s *Store) logPath(id string) string {
	return filepath.Join(s.dir, id+logSuffix)
}

// replayTenant rebuilds one tenant from its log, re-running the exact
// mutate pipeline (including each solve) the original process ran.
func (s *Store) replayTenant(id string) (*Tenant, error) {
	log, recs, recovered, err := openLog(s.logPath(id))
	if err != nil {
		return nil, err
	}
	s.stats.Replays.Add(1)
	if recovered {
		s.stats.Recovered.Add(1)
	}
	if len(recs) == 0 {
		// A crash between creating the file and fsyncing the init record:
		// nothing ever committed, so the tenant never existed.
		log.close()
		if err := os.Remove(s.logPath(id)); err != nil {
			return nil, err
		}
		s.stats.Recovered.Add(1)
		return nil, nil
	}
	init := recs[0]
	if init.Type != "init" || init.System == nil || init.Spec == nil {
		log.close()
		return nil, fmt.Errorf("first record is not a valid init")
	}
	t, err := s.newTenant(id, init.System, *init.Spec, log)
	if err != nil {
		log.close()
		return nil, err
	}

	// Re-apply committed batches. Records of a batch run up to the one
	// marked End; a trailing unterminated batch was never committed (the
	// crash hit between append and fsync) and is dropped like a torn tail.
	var batch []Delta
	applied := uint64(1)
	for _, r := range recs[1:] {
		if r.Type != "delta" || r.Delta == nil {
			return nil, fmt.Errorf("record %d: unexpected type %q", r.Seq, r.Type)
		}
		batch = append(batch, *r.Delta)
		if !r.End {
			continue
		}
		if err := t.replayBatch(batch, applied+uint64(len(batch))); err != nil {
			return nil, fmt.Errorf("record %d: %w", r.Seq, err)
		}
		applied += uint64(len(batch))
		batch = nil
	}
	if len(batch) > 0 {
		// Unterminated batch: rewind the file past it so future appends
		// start from the last committed record.
		if err := t.truncateTo(applied); err != nil {
			return nil, err
		}
		s.stats.Recovered.Add(1)
	}
	return t, nil
}

// replayBatch re-runs one committed batch during replay: apply, validate,
// solve — the same pipeline as Mutate, minus the log append.
func (t *Tenant) replayBatch(deltas []Delta, seq uint64) error {
	sys := t.sys.Clone()
	spec := t.spec
	for i := range deltas {
		if err := deltas[i].apply(sys, &spec); err != nil {
			return fmt.Errorf("delta %d: %w", i+1, err)
		}
	}
	idx, err := model.NewIndex(sys)
	if err != nil {
		return err
	}
	t.seq = seq
	_, err = t.applyCommitted(sys, spec, core.NewOptimizer(idx, spec.CoreSpec().Options()...))
	return err
}

// truncateTo drops all log records after seq, used to discard a trailing
// uncommitted batch discovered during replay.
func (t *Tenant) truncateTo(seq uint64) error {
	recs, _, _, err := readLog(t.log.path)
	if err != nil {
		return err
	}
	var end int64
	for _, r := range recs {
		if r.Seq > seq {
			break
		}
		line, err := encodeRecord(r)
		if err != nil {
			return err
		}
		end += int64(len(line))
	}
	if err := t.log.f.Truncate(end); err != nil {
		return err
	}
	if err := t.log.f.Sync(); err != nil {
		return err
	}
	_, err = t.log.f.Seek(end, 0)
	return err
}

// newTenant builds a live tenant around a system and spec and runs the
// initial solve, so Last is populated from the moment the tenant exists.
func (s *Store) newTenant(id string, sys *model.System, spec SolveSpec, log *tlog) (*Tenant, error) {
	cs := spec.CoreSpec()
	if err := cs.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalid, err)
	}
	clone := sys.Clone()
	idx, err := model.NewIndex(clone)
	if err != nil {
		return nil, fmt.Errorf("%w: invalid system: %w", ErrInvalid, err)
	}
	t := &Tenant{
		id:    id,
		runID: s.runID,
		stats: &s.stats,
		sys:   clone,
		spec:  spec,
		opt:   core.NewOptimizer(idx, cs.Options()...),
		log:   log,
		seq:   1,
	}
	if spec.MinCost {
		if ok, err := feasibleTargets(t.opt, idx, spec); err != nil {
			return nil, err
		} else if !ok {
			return nil, core.ErrInfeasible
		}
	}
	res, err := t.solveWarm()
	if err != nil {
		return nil, err
	}
	t.last = res
	t.stats.FullResolves.Add(1)
	return t, nil
}

// Create registers a new tenant: writes its init record (fsynced), runs the
// initial solve, and returns the live tenant.
func (s *Store) Create(id string, sys *model.System, spec SolveSpec) (*Tenant, error) {
	if !ValidTenantID(id) {
		return nil, fmt.Errorf("%w: invalid tenant id %q", ErrInvalid, id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("state: store closed")
	}
	if _, ok := s.tenants[id]; ok {
		return nil, fmt.Errorf("%w: %q", ErrTenantExists, id)
	}
	path := s.logPath(id)
	if _, err := os.Stat(path); err == nil {
		return nil, fmt.Errorf("%w: %q has a log on disk", ErrTenantExists, id)
	}

	init := &record{
		V:      logVersion,
		Seq:    1,
		RunID:  s.runID,
		Type:   "init",
		System: sys,
		Spec:   &spec,
	}
	log, _, _, err := openLog(path)
	if err != nil {
		return nil, err
	}
	// Durability first: the init record is fsynced before the tenant
	// exists, so a crash at any later point replays to a valid tenant. A
	// crash before this append leaves an empty file, which Open treats as
	// a discarded torn create.
	if err := log.append([]*record{init}); err != nil {
		log.close()
		os.Remove(path)
		return nil, err
	}
	t, err := s.newTenant(id, sys, spec, log)
	if err != nil {
		log.close()
		os.Remove(path)
		return nil, err
	}
	s.tenants[id] = t
	return t, nil
}

// Tenant looks up a live tenant by id.
func (s *Store) Tenant(id string) (*Tenant, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[id]
	return t, ok
}

// Tenants returns the sorted ids of all live tenants.
func (s *Store) Tenants() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.tenants))
	for id := range s.tenants {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Close flushes and closes every tenant log. The store and its tenants must
// not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	for _, t := range s.tenants {
		t.mu.Lock()
		if t.log != nil {
			if err := t.log.close(); err != nil && first == nil {
				first = err
			}
			t.log = nil
		}
		t.mu.Unlock()
	}
	return first
}
