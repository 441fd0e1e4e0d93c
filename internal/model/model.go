// Package model defines the system model of Thakore, Weaver and Sanders
// (DSN 2016): the assets that make up a system, the monitors that can be
// deployed on those assets, the data that monitors generate, and the
// relationship between generated data and intrusions.
//
// The central relation is evidence: every attack consists of steps, every
// step manifests in one or more data types, and every monitor produces a set
// of data types. A deployed monitor therefore covers the attack steps whose
// evidence it produces; the metrics and optimization packages quantify and
// optimize that coverage.
package model

import (
	"fmt"
	"slices"
)

// AssetID identifies an asset within a System.
type AssetID string

// MonitorID identifies a deployable monitor within a System.
type MonitorID string

// DataTypeID identifies a class of observable data within a System.
type DataTypeID string

// AttackID identifies an attack (intrusion) within a System.
type AttackID string

// Asset is a component of the modeled system: a host, service, network
// segment or similar location where monitors can be deployed and data is
// generated.
type Asset struct {
	ID   AssetID `json:"id"`
	Name string  `json:"name"`
	// Kind is a free-form classification such as "host", "network" or
	// "service".
	Kind string `json:"kind,omitempty"`
	// Criticality is the asset's relative importance; it defaults to 1 and
	// scales the weight of attacks targeting the asset in reports.
	Criticality float64 `json:"criticality,omitempty"`
}

// DataType is a class of observable data (an event type with fields), such
// as "web access log entry" or "netflow record". Data types are the currency
// of the evidence relation between monitors and attacks.
type DataType struct {
	ID   DataTypeID `json:"id"`
	Name string     `json:"name"`
	// Asset is the asset on which this data is observable; empty when the
	// data is not tied to a single asset.
	Asset AssetID `json:"asset,omitempty"`
	// Fields lists the fields carried by events of this type, used by the
	// richness metric.
	Fields []string `json:"fields,omitempty"`
}

// Monitor is a deployable sensor: deploying it incurs a cost and makes a set
// of data types observable.
type Monitor struct {
	ID   MonitorID `json:"id"`
	Name string    `json:"name"`
	// Asset is the asset on which the monitor is deployed.
	Asset AssetID `json:"asset,omitempty"`
	// Produces lists the data types this monitor generates when deployed.
	Produces []DataTypeID `json:"produces"`
	// CapitalCost is the one-time cost of deploying the monitor.
	CapitalCost float64 `json:"capitalCost"`
	// OperationalCost is the recurring cost (per planning period) of
	// keeping the monitor running: processing, storage, maintenance.
	OperationalCost float64 `json:"operationalCost"`
}

// TotalCost is the cost used by the deployment optimization: capital plus
// one planning period of operation.
func (m Monitor) TotalCost() float64 {
	return m.CapitalCost + m.OperationalCost
}

// AttackStep is one stage of an attack together with the data types in which
// it manifests (its evidence).
type AttackStep struct {
	Name string `json:"name"`
	// Evidence lists the data types that would record this step. Covering
	// any evidence item makes the step observable; covering more increases
	// redundancy.
	Evidence []DataTypeID `json:"evidence"`
}

// Attack is a weighted intrusion scenario consisting of ordered steps.
type Attack struct {
	ID   AttackID `json:"id"`
	Name string   `json:"name"`
	// Weight is the attack's relative importance (likelihood x impact);
	// it defaults to 1.
	Weight float64      `json:"weight,omitempty"`
	Steps  []AttackStep `json:"steps"`
}

// EvidenceUnion returns the deduplicated, sorted union of evidence across
// all steps of the attack.
func (a Attack) EvidenceUnion() []DataTypeID {
	seen := make(map[DataTypeID]bool)
	var out []DataTypeID
	for _, step := range a.Steps {
		for _, e := range step.Evidence {
			if !seen[e] {
				seen[e] = true
				out = append(out, e)
			}
		}
	}
	slices.Sort(out)
	return out
}

// System is the complete model: assets, observable data types, deployable
// monitors and the attacks to defend against.
type System struct {
	Name      string     `json:"name"`
	Assets    []Asset    `json:"assets"`
	DataTypes []DataType `json:"dataTypes"`
	Monitors  []Monitor  `json:"monitors"`
	Attacks   []Attack   `json:"attacks"`
}

// TotalMonitorCost is the cost of deploying every monitor in the system; it
// is the natural upper end of budget sweeps.
func (s *System) TotalMonitorCost() float64 {
	sum := 0.0
	for _, m := range s.Monitors {
		sum += m.TotalCost()
	}
	return sum
}

// TotalAttackWeight is the sum of attack weights (with the default of 1
// applied); utility is normalized against it.
func (s *System) TotalAttackWeight() float64 {
	sum := 0.0
	for _, a := range s.Attacks {
		sum += attackWeight(a)
	}
	return sum
}

// attackWeight applies the default weight of 1.
func attackWeight(a Attack) float64 {
	if a.Weight <= 0 {
		return 1
	}
	return a.Weight
}

// AttackWeight returns the effective weight of an attack, applying the
// default of 1 when the weight is unset.
func AttackWeight(a Attack) float64 { return attackWeight(a) }

// Clone returns a deep copy of the system.
func (s *System) Clone() *System {
	cp := &System{
		Name:      s.Name,
		Assets:    make([]Asset, len(s.Assets)),
		DataTypes: make([]DataType, len(s.DataTypes)),
		Monitors:  make([]Monitor, len(s.Monitors)),
		Attacks:   make([]Attack, len(s.Attacks)),
	}
	copy(cp.Assets, s.Assets)
	for i, d := range s.DataTypes {
		d.Fields = append([]string(nil), d.Fields...)
		cp.DataTypes[i] = d
	}
	for i, m := range s.Monitors {
		m.Produces = append([]DataTypeID(nil), m.Produces...)
		cp.Monitors[i] = m
	}
	for i, a := range s.Attacks {
		steps := make([]AttackStep, len(a.Steps))
		for j, st := range a.Steps {
			st.Evidence = append([]DataTypeID(nil), st.Evidence...)
			steps[j] = st
		}
		a.Steps = steps
		cp.Attacks[i] = a
	}
	return cp
}

// String summarizes the system size.
func (s *System) String() string {
	return fmt.Sprintf("%s: %d assets, %d data types, %d monitors, %d attacks",
		s.Name, len(s.Assets), len(s.DataTypes), len(s.Monitors), len(s.Attacks))
}
