package model

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
)

// Deployment is a set of monitors selected for deployment. The zero value is
// an empty deployment ready to use.
type Deployment struct {
	members map[MonitorID]bool
}

// NewDeployment returns a deployment containing the given monitors.
func NewDeployment(ids ...MonitorID) *Deployment {
	d := &Deployment{members: make(map[MonitorID]bool, len(ids))}
	for _, id := range ids {
		d.members[id] = true
	}
	return d
}

// Add inserts a monitor into the deployment.
func (d *Deployment) Add(id MonitorID) {
	if d.members == nil {
		d.members = make(map[MonitorID]bool)
	}
	d.members[id] = true
}

// Remove deletes a monitor from the deployment.
func (d *Deployment) Remove(id MonitorID) {
	delete(d.members, id)
}

// Contains reports whether the deployment includes the monitor.
func (d *Deployment) Contains(id MonitorID) bool {
	return d.members[id]
}

// Len reports the number of deployed monitors.
func (d *Deployment) Len() int { return len(d.members) }

// IDs returns the deployed monitor identifiers in sorted order.
func (d *Deployment) IDs() []MonitorID {
	out := make([]MonitorID, 0, len(d.members))
	for id := range d.members {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// Each calls f for every deployed monitor in unspecified order. It avoids
// the sort cost of IDs for callers whose result is order-independent, such
// as redundancy counting.
func (d *Deployment) Each(f func(MonitorID)) {
	for id := range d.members {
		f(id)
	}
}

// Clone returns an independent copy of the deployment.
func (d *Deployment) Clone() *Deployment {
	cp := &Deployment{members: make(map[MonitorID]bool, len(d.members))}
	for id := range d.members {
		cp.members[id] = true
	}
	return cp
}

// Union returns a new deployment containing the monitors of both inputs.
func (d *Deployment) Union(other *Deployment) *Deployment {
	u := d.Clone()
	if other != nil {
		for id := range other.members {
			u.members[id] = true
		}
	}
	return u
}

// Cost sums the total cost of the deployed monitors using the index.
// Monitors not present in the index contribute nothing. Summation runs in
// sorted identifier order so the result is bit-for-bit reproducible across
// processes (float addition is not associative; map order would leak into
// the low bits otherwise).
func (d *Deployment) Cost(idx *Index) float64 {
	sum := 0.0
	for _, m := range d.Ordinals(idx) {
		sum += idx.cost[m]
	}
	return sum
}

// Ordinals returns the ascending index ordinals of the deployed monitors the
// index knows, skipping the others. Ordinal order is identifier order.
func (d *Deployment) Ordinals(idx *Index) []int32 {
	out := make([]int32, 0, len(d.members))
	for id := range d.members {
		if m, ok := idx.monitors[id]; ok {
			out = append(out, m)
		}
	}
	slices.Sort(out)
	return out
}

// String renders the deployment as a sorted, comma-separated identifier list.
func (d *Deployment) String() string {
	ids := d.IDs()
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = string(id)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Equal reports whether two deployments contain the same monitors.
func (d *Deployment) Equal(other *Deployment) bool {
	if other == nil {
		return d.Len() == 0
	}
	if len(d.members) != len(other.members) {
		return false
	}
	for id := range d.members {
		if !other.members[id] {
			return false
		}
	}
	return true
}

// deploymentJSON is the on-disk representation of a Deployment.
type deploymentJSON struct {
	Monitors []MonitorID `json:"monitors"`
}

// MarshalJSON encodes the deployment as {"monitors": [...]} with sorted
// identifiers.
func (d *Deployment) MarshalJSON() ([]byte, error) {
	return json.Marshal(deploymentJSON{Monitors: d.IDs()})
}

// UnmarshalJSON decodes the {"monitors": [...]} representation.
func (d *Deployment) UnmarshalJSON(data []byte) error {
	var raw deploymentJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("model: decode deployment: %w", err)
	}
	d.members = make(map[MonitorID]bool, len(raw.Monitors))
	for _, id := range raw.Monitors {
		d.members[id] = true
	}
	return nil
}

// DecodeDeployment reads a JSON-encoded deployment from r.
func DecodeDeployment(r io.Reader) (*Deployment, error) {
	var d Deployment
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("model: decode deployment: %w", err)
	}
	return &d, nil
}

// EncodeDeployment writes the deployment to w as indented JSON.
func EncodeDeployment(w io.Writer, d *Deployment) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		return fmt.Errorf("model: encode deployment: %w", err)
	}
	return nil
}
