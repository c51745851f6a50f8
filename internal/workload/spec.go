package workload

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// SLOClass labels an invocation's latency expectation. Classes are
// free-form strings; the three below are the conventional tiers the
// cluster experiment reports on.
type SLOClass string

// Conventional SLO classes.
const (
	ClassLatency  SLOClass = "latency"  // interactive, cold starts hurt
	ClassStandard SLOClass = "standard" // default tier
	ClassBatch    SLOClass = "batch"    // throughput-oriented
)

// Arrival kinds for TenantSpec.Arrival.
const (
	ArrivalPoisson = "poisson"
	ArrivalGamma   = "gamma"
)

// FuncShare is one function in a tenant's mix with its selection
// weight. Weights are relative; they need not sum to anything.
type FuncShare struct {
	Name   string
	Weight float64
}

// TenantSpec describes one tenant's traffic: an arrival process, a
// function mix, and an SLO class. The zero value is invalid.
type TenantSpec struct {
	Name string

	// RatePerSec is the mean arrival rate.
	RatePerSec float64

	// Arrival selects the interarrival distribution: ArrivalPoisson
	// (exponential interarrivals) or ArrivalGamma with Shape (burstier
	// than Poisson when Shape < 1, smoother when Shape > 1). The mean
	// interarrival is 1/RatePerSec either way.
	Arrival string
	Shape   float64 // gamma shape k; ignored for poisson

	// Funcs is the tenant's function mix. With Zipf == 0 each entry's
	// Weight is its relative share; with Zipf = s > 0 the weights are
	// ignored and entry i (in declaration order, rank i+1) is chosen
	// with probability proportional to 1/(i+1)^s.
	Funcs []FuncShare
	Zipf  float64

	// Class tags every invocation of this tenant. Empty means
	// ClassStandard.
	Class SLOClass

	// Seed, when nonzero, fixes this tenant's private random stream.
	// When zero the stream is derived from the cluster seed and the
	// tenant name, which makes the generated arrivals independent of
	// tenant declaration order.
	Seed int64
}

// Validate checks spec sanity.
func (t TenantSpec) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("workload: tenant with empty name")
	}
	if strings.ContainsAny(t.Name, " \t\n=,:") {
		return fmt.Errorf("workload: tenant name %q contains separator characters", t.Name)
	}
	if !(t.RatePerSec > 0) || math.IsInf(t.RatePerSec, 0) {
		return fmt.Errorf("workload: tenant %s: rate must be positive and finite, got %v", t.Name, t.RatePerSec)
	}
	switch t.Arrival {
	case ArrivalPoisson:
	case ArrivalGamma:
		if !(t.Shape > 0) || math.IsInf(t.Shape, 0) {
			return fmt.Errorf("workload: tenant %s: gamma shape must be positive and finite, got %v", t.Name, t.Shape)
		}
	default:
		return fmt.Errorf("workload: tenant %s: unknown arrival process %q", t.Name, t.Arrival)
	}
	if len(t.Funcs) == 0 {
		return fmt.Errorf("workload: tenant %s: empty function mix", t.Name)
	}
	if t.Zipf < 0 || math.IsInf(t.Zipf, 0) || math.IsNaN(t.Zipf) {
		return fmt.Errorf("workload: tenant %s: zipf exponent must be >= 0 and finite, got %v", t.Name, t.Zipf)
	}
	seen := make(map[string]bool, len(t.Funcs))
	total := 0.0
	for _, fs := range t.Funcs {
		if fs.Name == "" {
			return fmt.Errorf("workload: tenant %s: empty function name", t.Name)
		}
		if strings.ContainsAny(fs.Name, " \t\n=,:") {
			return fmt.Errorf("workload: tenant %s: function name %q contains separator characters", t.Name, fs.Name)
		}
		if seen[fs.Name] {
			return fmt.Errorf("workload: tenant %s: duplicate function %s", t.Name, fs.Name)
		}
		seen[fs.Name] = true
		if fs.Weight < 0 || math.IsInf(fs.Weight, 0) || math.IsNaN(fs.Weight) {
			return fmt.Errorf("workload: tenant %s: function %s: bad weight %v", t.Name, fs.Name, fs.Weight)
		}
		total += fs.Weight
	}
	if t.Zipf == 0 && !(total > 0) {
		return fmt.Errorf("workload: tenant %s: function weights sum to zero", t.Name)
	}
	if strings.ContainsAny(string(t.Class), " \t\n=,:") {
		return fmt.Errorf("workload: tenant %s: class %q contains separator characters", t.Name, t.Class)
	}
	return nil
}

// ClusterSpec is a full region workload: a set of tenants generating
// traffic over a fixed horizon from one master seed.
type ClusterSpec struct {
	Tenants []TenantSpec
	Horizon time.Duration
	Seed    int64
}

// Validate checks the spec and every tenant.
func (s ClusterSpec) Validate() error {
	if len(s.Tenants) == 0 {
		return fmt.Errorf("workload: cluster spec has no tenants")
	}
	if s.Horizon <= 0 {
		return fmt.Errorf("workload: cluster horizon must be positive, got %v", s.Horizon)
	}
	names := make(map[string]bool, len(s.Tenants))
	for _, t := range s.Tenants {
		if err := t.Validate(); err != nil {
			return err
		}
		if names[t.Name] {
			return fmt.Errorf("workload: duplicate tenant %s", t.Name)
		}
		names[t.Name] = true
	}
	return nil
}

// FunctionNames returns the sorted distinct function names across all
// tenants' mixes.
func (s ClusterSpec) FunctionNames() []string {
	seen := make(map[string]bool)
	var names []string
	for _, t := range s.Tenants {
		for _, fs := range t.Funcs {
			if !seen[fs.Name] {
				seen[fs.Name] = true
				names = append(names, fs.Name)
			}
		}
	}
	sort.Strings(names)
	return names
}
