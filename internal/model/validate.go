package model

import (
	"errors"
	"fmt"
	"math"
)

// ErrInvalidSystem is wrapped by every validation failure so callers can
// match the whole class with errors.Is.
var ErrInvalidSystem = errors.New("model: invalid system")

// Validate checks the structural integrity of the system: unique identifiers,
// resolvable references, sane numeric values, and that every monitor and
// attack participates in the evidence relation. It returns the first problem
// found.
func (s *System) Validate() error {
	_, err := s.validate()
	return err
}

// positions maps every identifier of a validated system to its position in
// the system's slices.
type positions struct {
	assets    map[AssetID]int32
	dataTypes map[DataTypeID]int32
	monitors  map[MonitorID]int32
	attacks   map[AttackID]int32
}

// validate is Validate, returning the identifier positions it builds on the
// way so NewIndex does not build them again.
func (s *System) validate() (*positions, error) {
	p := &positions{
		assets:    make(map[AssetID]int32, len(s.Assets)),
		dataTypes: make(map[DataTypeID]int32, len(s.DataTypes)),
		monitors:  make(map[MonitorID]int32, len(s.Monitors)),
		attacks:   make(map[AttackID]int32, len(s.Attacks)),
	}
	for i, a := range s.Assets {
		if a.ID == "" {
			return nil, fmt.Errorf("%w: asset with empty id (name %q)", ErrInvalidSystem, a.Name)
		}
		if _, dup := p.assets[a.ID]; dup {
			return nil, fmt.Errorf("%w: duplicate asset id %q", ErrInvalidSystem, a.ID)
		}
		if a.Criticality < 0 || math.IsNaN(a.Criticality) || math.IsInf(a.Criticality, 0) {
			return nil, fmt.Errorf("%w: asset %q has criticality %v", ErrInvalidSystem, a.ID, a.Criticality)
		}
		p.assets[a.ID] = int32(i)
	}
	knownAsset := func(id AssetID) bool {
		_, ok := p.assets[id]
		return id == "" || ok
	}

	for i, d := range s.DataTypes {
		if d.ID == "" {
			return nil, fmt.Errorf("%w: data type with empty id (name %q)", ErrInvalidSystem, d.Name)
		}
		if _, dup := p.dataTypes[d.ID]; dup {
			return nil, fmt.Errorf("%w: duplicate data type id %q", ErrInvalidSystem, d.ID)
		}
		if !knownAsset(d.Asset) {
			return nil, fmt.Errorf("%w: data type %q references unknown asset %q", ErrInvalidSystem, d.ID, d.Asset)
		}
		p.dataTypes[d.ID] = int32(i)
	}

	// seenBy[d] is one more than the position of the last monitor listing
	// data type d: a duplicate within one monitor finds its own mark.
	seenBy := make([]int32, len(s.DataTypes))
	for i, m := range s.Monitors {
		if m.ID == "" {
			return nil, fmt.Errorf("%w: monitor with empty id (name %q)", ErrInvalidSystem, m.Name)
		}
		if _, dup := p.monitors[m.ID]; dup {
			return nil, fmt.Errorf("%w: duplicate monitor id %q", ErrInvalidSystem, m.ID)
		}
		if !knownAsset(m.Asset) {
			return nil, fmt.Errorf("%w: monitor %q references unknown asset %q", ErrInvalidSystem, m.ID, m.Asset)
		}
		if len(m.Produces) == 0 {
			return nil, fmt.Errorf("%w: monitor %q produces no data", ErrInvalidSystem, m.ID)
		}
		for _, d := range m.Produces {
			pos, ok := p.dataTypes[d]
			if !ok {
				return nil, fmt.Errorf("%w: monitor %q produces unknown data type %q", ErrInvalidSystem, m.ID, d)
			}
			if seenBy[pos] == int32(i)+1 {
				return nil, fmt.Errorf("%w: monitor %q lists data type %q twice", ErrInvalidSystem, m.ID, d)
			}
			seenBy[pos] = int32(i) + 1
		}
		if err := validCost(m.CapitalCost); err != nil {
			return nil, fmt.Errorf("%w: monitor %q capital cost: %v", ErrInvalidSystem, m.ID, err)
		}
		if err := validCost(m.OperationalCost); err != nil {
			return nil, fmt.Errorf("%w: monitor %q operational cost: %v", ErrInvalidSystem, m.ID, err)
		}
		p.monitors[m.ID] = int32(i)
	}

	for i, a := range s.Attacks {
		if a.ID == "" {
			return nil, fmt.Errorf("%w: attack with empty id (name %q)", ErrInvalidSystem, a.Name)
		}
		if _, dup := p.attacks[a.ID]; dup {
			return nil, fmt.Errorf("%w: duplicate attack id %q", ErrInvalidSystem, a.ID)
		}
		if a.Weight < 0 || math.IsNaN(a.Weight) || math.IsInf(a.Weight, 0) {
			return nil, fmt.Errorf("%w: attack %q has weight %v", ErrInvalidSystem, a.ID, a.Weight)
		}
		if len(a.Steps) == 0 {
			return nil, fmt.Errorf("%w: attack %q has no steps", ErrInvalidSystem, a.ID)
		}
		evidenceTotal := 0
		for si, step := range a.Steps {
			for _, e := range step.Evidence {
				if _, ok := p.dataTypes[e]; !ok {
					return nil, fmt.Errorf("%w: attack %q step %d references unknown data type %q",
						ErrInvalidSystem, a.ID, si, e)
				}
				evidenceTotal++
			}
		}
		if evidenceTotal == 0 {
			return nil, fmt.Errorf("%w: attack %q has no evidence in any step", ErrInvalidSystem, a.ID)
		}
		p.attacks[a.ID] = int32(i)
	}
	return p, nil
}

func validCost(c float64) error {
	if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
		return fmt.Errorf("cost %v is not a non-negative finite number", c)
	}
	return nil
}
