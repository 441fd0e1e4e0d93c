package model_test

import (
	"math"
	"slices"
	"testing"

	"secmon/internal/model"
	"secmon/internal/synth"
)

// referenceContribution is the per-data-type utility contribution computed
// the map-based way: accumulated attack by attack in system order over each
// sorted evidence union.
func referenceContribution(sys *model.System) map[model.DataTypeID]float64 {
	total := sys.TotalAttackWeight()
	contrib := make(map[model.DataTypeID]float64)
	if total == 0 {
		return contrib
	}
	for _, a := range sys.Attacks {
		ev := a.EvidenceUnion()
		if len(ev) == 0 {
			continue
		}
		share := model.AttackWeight(a) / (total * float64(len(ev)))
		for _, e := range ev {
			contrib[e] += share
		}
	}
	return contrib
}

// TestIndexViewsMatchSystem checks every compiled ordinal view against the
// system it was compiled from, on synthetic systems of several shapes: ID
// orders, costs, the production relation both ways, evidence unions, and
// contributions bit for bit.
func TestIndexViewsMatchSystem(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		cfg := synth.Config{Seed: seed, Monitors: 10 + int(seed)*7, Attacks: 5 + int(seed)*3}
		if seed%4 == 0 {
			cfg.Segments = 3
		}
		sys, err := synth.Generate(cfg)
		if err != nil {
			t.Fatalf("seed %d: synth: %v", seed, err)
		}
		idx, err := model.NewIndex(sys)
		if err != nil {
			t.Fatalf("seed %d: index: %v", seed, err)
		}
		checkViews(t, seed, sys, idx)
	}
}

func checkViews(t *testing.T, seed int64, sys *model.System, idx *model.Index) {
	t.Helper()
	mons := idx.MonitorIDs()
	if len(mons) != len(sys.Monitors) || idx.NumMonitors() != len(mons) || !slices.IsSorted(mons) {
		t.Fatalf("seed %d: MonitorIDs %d sorted=%v, system has %d", seed, len(mons), slices.IsSorted(mons), len(sys.Monitors))
	}
	data := idx.DataTypeIDs()
	if len(data) != len(sys.DataTypes) || idx.NumDataTypes() != len(data) || !slices.IsSorted(data) {
		t.Fatalf("seed %d: DataTypeIDs %d sorted=%v, system has %d", seed, len(data), slices.IsSorted(data), len(sys.DataTypes))
	}
	if aids := idx.AttackIDs(); len(aids) != len(sys.Attacks) || !slices.IsSorted(aids) {
		t.Fatalf("seed %d: AttackIDs %v not the sorted system attacks", seed, aids)
	}
	for d, id := range data {
		if o, ok := idx.DataTypeOrdinal(id); !ok || o != d || idx.DataTypeAt(d) != id {
			t.Fatalf("seed %d: data type %q: ordinal %d/%v, want %d", seed, id, o, ok, d)
		}
	}

	producers := make(map[model.DataTypeID][]model.MonitorID)
	for _, m := range sys.Monitors {
		o, ok := idx.MonitorOrdinal(m.ID)
		if !ok || idx.MonitorAt(o) != m.ID || mons[o] != m.ID {
			t.Fatalf("seed %d: monitor %q: ordinal %d/%v", seed, m.ID, o, ok)
		}
		if idx.MonitorCost(o) != m.TotalCost() {
			t.Fatalf("seed %d: monitor %q cost %v, want %v", seed, m.ID, idx.MonitorCost(o), m.TotalCost())
		}
		got := idx.MonitorData(o)
		if len(got) != len(m.Produces) {
			t.Fatalf("seed %d: monitor %q produces %d data types, view has %d", seed, m.ID, len(m.Produces), len(got))
		}
		for j, d := range m.Produces {
			if idx.DataTypeAt(int(got[j])) != d || !idx.MonitorProduces(m.ID, d) {
				t.Fatalf("seed %d: monitor %q produce %d: view %q, system %q", seed, m.ID, j, idx.DataTypeAt(int(got[j])), d)
			}
			producers[d] = append(producers[d], m.ID)
		}
	}
	contrib := referenceContribution(sys)
	for d, id := range data {
		want := producers[id]
		slices.Sort(want)
		got := idx.DataProducers(d)
		if !slices.IsSorted(got) || len(got) != len(want) || !slices.Equal(idx.Producers(id), want) {
			t.Fatalf("seed %d: producers of %q: view %v, IDs %v, want %v", seed, id, got, idx.Producers(id), want)
		}
		for j, m := range got {
			if idx.MonitorAt(int(m)) != want[j] {
				t.Fatalf("seed %d: producer %d of %q: %q, want %q", seed, j, id, idx.MonitorAt(int(m)), want[j])
			}
		}
		c, relevant := contrib[id]
		if idx.Relevant(d) != relevant || math.Float64bits(idx.Contribution(d)) != math.Float64bits(c) {
			t.Fatalf("seed %d: contribution of %q: %v/%v, want %v/%v", seed, id, idx.Contribution(d), idx.Relevant(d), c, relevant)
		}
	}

	for a, attack := range sys.Attacks {
		o, ok := idx.AttackOrdinal(attack.ID)
		if !ok || o != a {
			t.Fatalf("seed %d: attack %q ordinal %d/%v, want its system position %d", seed, attack.ID, o, ok, a)
		}
		want := attack.EvidenceUnion()
		ev := idx.AttackData(a)
		if !slices.IsSorted(ev) || !slices.Equal(idx.AttackEvidence(attack.ID), want) || len(ev) != len(want) {
			t.Fatalf("seed %d: evidence of %q: view %v, IDs %v, want %v", seed, attack.ID, ev, idx.AttackEvidence(attack.ID), want)
		}
		for j, d := range ev {
			if idx.DataTypeAt(int(d)) != want[j] {
				t.Fatalf("seed %d: evidence %d of %q: %q, want %q", seed, j, attack.ID, idx.DataTypeAt(int(d)), want[j])
			}
		}
	}
}

// TestIndexIDListsAreCopies verifies the ID-list accessors hand out the
// caller's own slices: scribbling over one changes neither later lists nor
// the index's ordinal lookups.
func TestIndexIDListsAreCopies(t *testing.T) {
	sys, err := synth.Generate(synth.Config{Seed: 3, Monitors: 30, Attacks: 12})
	if err != nil {
		t.Fatalf("synth: %v", err)
	}
	idx, err := model.NewIndex(sys)
	if err != nil {
		t.Fatalf("index: %v", err)
	}
	mons, data, attacks := idx.MonitorIDs(), idx.DataTypeIDs(), idx.AttackIDs()
	wantM, wantD, wantA := slices.Clone(mons), slices.Clone(data), slices.Clone(attacks)
	slices.Reverse(mons)
	mons[0] = "scribbled"
	data[0] = "scribbled"
	attacks[len(attacks)-1] = "scribbled"
	if !slices.Equal(idx.MonitorIDs(), wantM) || !slices.Equal(idx.DataTypeIDs(), wantD) || !slices.Equal(idx.AttackIDs(), wantA) {
		t.Fatal("mutating a returned ID list changed the index")
	}
	for o, id := range wantM {
		if got, ok := idx.MonitorOrdinal(id); !ok || got != o || idx.MonitorAt(o) != id {
			t.Fatalf("monitor %q: ordinal %d/%v after mutation, want %d", id, got, ok, o)
		}
	}
	checkViews(t, 3, sys, idx)
}
