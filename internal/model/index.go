package model

import (
	"fmt"
	"slices"
)

// Index is a validated, query-optimized view of a System, compiled once at
// construction. It resolves identifiers to entities and holds the ordinal
// views the metrics, optimization and decomposition packages traverse.
//
// Monitors and data types are numbered by ordinal: their position in sorted
// identifier order, so walking ordinals walks identifiers in sorted order.
// Attacks are numbered by their position in System.Attacks, the order every
// attack-weighted sum runs in; AttackIDs lists them sorted.
//
// An Index is immutable after construction and safe for concurrent reads.
// The ID-list accessors return copies; every other returned slice is shared
// and must not be modified.
type Index struct {
	sys *System

	// assets and attacks map identifiers to system positions; monitors and
	// dataTypes map identifiers to ordinals.
	assets    map[AssetID]int32
	attacks   map[AttackID]int32
	monitors  map[MonitorID]int32
	dataTypes map[DataTypeID]int32

	monitorIDs  []MonitorID  // by ordinal
	dataTypeIDs []DataTypeID // by ordinal
	attackIDs   []AttackID   // sorted

	monitorPos []int32 // monitor ordinal to system position
	dataPos    []int32 // data type ordinal to system position

	cost []float64 // total cost per monitor ordinal
	// produces lists the data ordinals of each monitor in Monitor.Produces
	// order; producers the ascending monitor ordinals of each data type, and
	// producerIDs their identifiers.
	produces    [][]int32
	producers   [][]int32
	producerIDs [][]MonitorID
	// evidence lists the ascending data ordinals of each attack's evidence
	// union, and evidenceIDs their identifiers.
	evidence    [][]int32
	evidenceIDs [][]DataTypeID
	// contrib is each data type's utility contribution (see Contribution);
	// relevant marks the data types in some attack's evidence.
	contrib  []float64
	relevant []bool
}

// NewIndex validates the system and compiles the index over it. The index
// keeps a reference to the system; callers must not mutate the system
// afterwards (use System.Clone first when mutation is needed).
func NewIndex(s *System) (*Index, error) {
	pos, err := s.validate()
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	nm, nd, na := len(s.Monitors), len(s.DataTypes), len(s.Attacks)
	idx := &Index{
		sys:       s,
		assets:    pos.assets,
		attacks:   pos.attacks,
		monitors:  pos.monitors,
		dataTypes: pos.dataTypes,
	}

	// Ordinals: sort the identifiers, then repoint the validation maps from
	// system positions to ordinals.
	idx.dataTypeIDs = make([]DataTypeID, nd)
	for i := range s.DataTypes {
		idx.dataTypeIDs[i] = s.DataTypes[i].ID
	}
	slices.Sort(idx.dataTypeIDs)
	idx.dataPos = make([]int32, nd)
	for o, id := range idx.dataTypeIDs {
		idx.dataPos[o] = idx.dataTypes[id]
		idx.dataTypes[id] = int32(o)
	}
	idx.monitorIDs = make([]MonitorID, nm)
	for i := range s.Monitors {
		idx.monitorIDs[i] = s.Monitors[i].ID
	}
	slices.Sort(idx.monitorIDs)
	idx.monitorPos = make([]int32, nm)
	for o, id := range idx.monitorIDs {
		idx.monitorPos[o] = idx.monitors[id]
		idx.monitors[id] = int32(o)
	}
	idx.attackIDs = make([]AttackID, na)
	for i := range s.Attacks {
		idx.attackIDs[i] = s.Attacks[i].ID
	}
	slices.Sort(idx.attackIDs)

	// Production relation. One backing array per view; walking monitors in
	// ordinal order leaves every producer list ascending.
	total := 0
	perData := make([]int32, nd)
	for i := range s.Monitors {
		total += len(s.Monitors[i].Produces)
	}
	idx.cost = make([]float64, nm)
	idx.produces = make([][]int32, nm)
	flat := make([]int32, 0, total)
	for o, p := range idx.monitorPos {
		m := &s.Monitors[p]
		idx.cost[o] = m.TotalCost()
		start := len(flat)
		for _, d := range m.Produces {
			od := idx.dataTypes[d]
			flat = append(flat, od)
			perData[od]++
		}
		idx.produces[o] = flat[start:len(flat):len(flat)]
	}
	idx.producers = make([][]int32, nd)
	idx.producerIDs = make([][]MonitorID, nd)
	prodFlat := make([]int32, total)
	prodIDFlat := make([]MonitorID, total)
	at := int32(0)
	for d, n := range perData {
		idx.producers[d] = prodFlat[at : at : at+n]
		idx.producerIDs[d] = prodIDFlat[at : at : at+n]
		at += n
	}
	for o, ds := range idx.produces {
		for _, d := range ds {
			idx.producers[d] = append(idx.producers[d], int32(o))
			idx.producerIDs[d] = append(idx.producerIDs[d], idx.monitorIDs[o])
		}
	}

	// Evidence unions, deduplicated with a per-attack stamp and sorted as
	// ordinals (ordinal order is identifier order).
	total = 0
	for i := range s.Attacks {
		for _, st := range s.Attacks[i].Steps {
			total += len(st.Evidence)
		}
	}
	stamp := make([]int32, nd)
	flat = make([]int32, 0, total)
	idx.evidence = make([][]int32, na)
	for a := range s.Attacks {
		start := len(flat)
		for _, st := range s.Attacks[a].Steps {
			for _, e := range st.Evidence {
				if od := idx.dataTypes[e]; stamp[od] != int32(a)+1 {
					stamp[od] = int32(a) + 1
					flat = append(flat, od)
				}
			}
		}
		ev := flat[start:len(flat):len(flat)]
		slices.Sort(ev)
		idx.evidence[a] = ev
	}
	idx.evidenceIDs = make([][]DataTypeID, na)
	idFlat := make([]DataTypeID, len(flat))
	for a, ev := range idx.evidence {
		ids := idFlat[:len(ev):len(ev)]
		idFlat = idFlat[len(ev):]
		for j, d := range ev {
			ids[j] = idx.dataTypeIDs[d]
		}
		idx.evidenceIDs[a] = ids
	}

	// Utility contributions, accumulated attack by attack in system order
	// and, within an attack, in identifier order: the order fixes the bits
	// every formulation and greedy score built on them reproduces.
	idx.contrib = make([]float64, nd)
	idx.relevant = make([]bool, nd)
	if weight := s.TotalAttackWeight(); weight > 0 {
		for a, ev := range idx.evidence {
			if len(ev) == 0 {
				continue
			}
			share := AttackWeight(s.Attacks[a]) / (weight * float64(len(ev)))
			for _, d := range ev {
				idx.contrib[d] += share
				idx.relevant[d] = true
			}
		}
	}
	return idx, nil
}

// System returns the indexed system.
func (idx *Index) System() *System { return idx.sys }

// Asset resolves an asset identifier.
func (idx *Index) Asset(id AssetID) (*Asset, bool) {
	p, ok := idx.assets[id]
	if !ok {
		return nil, false
	}
	return &idx.sys.Assets[p], true
}

// DataType resolves a data type identifier.
func (idx *Index) DataType(id DataTypeID) (*DataType, bool) {
	o, ok := idx.dataTypes[id]
	if !ok {
		return nil, false
	}
	return &idx.sys.DataTypes[idx.dataPos[o]], true
}

// Monitor resolves a monitor identifier.
func (idx *Index) Monitor(id MonitorID) (*Monitor, bool) {
	o, ok := idx.monitors[id]
	if !ok {
		return nil, false
	}
	return &idx.sys.Monitors[idx.monitorPos[o]], true
}

// Attack resolves an attack identifier.
func (idx *Index) Attack(id AttackID) (*Attack, bool) {
	p, ok := idx.attacks[id]
	if !ok {
		return nil, false
	}
	return &idx.sys.Attacks[p], true
}

// Producers returns the monitors that produce the given data type, sorted by
// identifier. The returned slice must not be modified.
func (idx *Index) Producers(d DataTypeID) []MonitorID {
	o, ok := idx.dataTypes[d]
	if !ok {
		return nil
	}
	return idx.producerIDs[o]
}

// MonitorProduces reports whether monitor m produces data type d.
func (idx *Index) MonitorProduces(m MonitorID, d DataTypeID) bool {
	om, ok := idx.monitors[m]
	od, ok2 := idx.dataTypes[d]
	return ok && ok2 && slices.Contains(idx.produces[om], od)
}

// AttackEvidence returns the deduplicated evidence union of an attack,
// sorted by identifier. The returned slice must not be modified.
func (idx *Index) AttackEvidence(id AttackID) []DataTypeID {
	p, ok := idx.attacks[id]
	if !ok {
		return nil
	}
	return idx.evidenceIDs[p]
}

// MonitorIDs returns all monitor identifiers in sorted order, which is
// ordinal order. The slice is the caller's.
func (idx *Index) MonitorIDs() []MonitorID { return slices.Clone(idx.monitorIDs) }

// AttackIDs returns all attack identifiers in sorted order. The slice is
// the caller's.
func (idx *Index) AttackIDs() []AttackID { return slices.Clone(idx.attackIDs) }

// DataTypeIDs returns all data type identifiers in sorted order, which is
// ordinal order. The slice is the caller's.
func (idx *Index) DataTypeIDs() []DataTypeID { return slices.Clone(idx.dataTypeIDs) }

// ObservableEvidence reports how many of the attack's evidence items are
// producible by at least one monitor in the whole system. Attacks whose
// evidence nobody can produce bound achievable coverage below 1.
func (idx *Index) ObservableEvidence(id AttackID) int {
	p, ok := idx.attacks[id]
	if !ok {
		return 0
	}
	n := 0
	for _, d := range idx.evidence[p] {
		if len(idx.producers[d]) > 0 {
			n++
		}
	}
	return n
}

// NumMonitors is the number of monitors, one past the largest ordinal.
func (idx *Index) NumMonitors() int { return len(idx.monitorIDs) }

// NumDataTypes is the number of data types, one past the largest ordinal.
func (idx *Index) NumDataTypes() int { return len(idx.dataTypeIDs) }

// MonitorOrdinal resolves a monitor identifier to its ordinal.
func (idx *Index) MonitorOrdinal(id MonitorID) (int, bool) {
	o, ok := idx.monitors[id]
	return int(o), ok
}

// DataTypeOrdinal resolves a data type identifier to its ordinal.
func (idx *Index) DataTypeOrdinal(id DataTypeID) (int, bool) {
	o, ok := idx.dataTypes[id]
	return int(o), ok
}

// MonitorAt returns the identifier of monitor ordinal m.
func (idx *Index) MonitorAt(m int) MonitorID { return idx.monitorIDs[m] }

// DataTypeAt returns the identifier of data type ordinal d.
func (idx *Index) DataTypeAt(d int) DataTypeID { return idx.dataTypeIDs[d] }

// AttackOrdinal resolves an attack identifier to its ordinal, its position
// in System.Attacks.
func (idx *Index) AttackOrdinal(id AttackID) (int, bool) {
	p, ok := idx.attacks[id]
	return int(p), ok
}

// MonitorCost returns the total cost of monitor ordinal m.
func (idx *Index) MonitorCost(m int) float64 { return idx.cost[m] }

// MonitorData returns the data type ordinals monitor ordinal m produces, in
// Monitor.Produces order.
func (idx *Index) MonitorData(m int) []int32 { return idx.produces[m] }

// DataProducers returns the ascending ordinals of the monitors producing
// data type ordinal d.
func (idx *Index) DataProducers(d int) []int32 { return idx.producers[d] }

// AttackData returns the ascending data type ordinals of the evidence union
// of attack ordinal a.
func (idx *Index) AttackData(a int) []int32 { return idx.evidence[a] }

// Contribution returns the utility that covering data type ordinal d adds:
// the sum, over the attacks using it as evidence, of each attack's weight
// over the total attack weight times the size of its evidence union.
func (idx *Index) Contribution(d int) float64 { return idx.contrib[d] }

// Relevant reports whether data type ordinal d is evidence of some attack.
func (idx *Index) Relevant(d int) bool { return idx.relevant[d] }
