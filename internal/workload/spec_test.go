package workload

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestTenantSpecValidate(t *testing.T) {
	ok := TenantSpec{Name: "x", RatePerSec: 1, Arrival: ArrivalPoisson,
		Funcs: []FuncShare{{Name: "json", Weight: 1}}}
	with := func(edit func(*TenantSpec)) TenantSpec {
		s := ok
		s.Funcs = append([]FuncShare(nil), ok.Funcs...)
		edit(&s)
		return s
	}
	cases := []struct {
		name string
		spec TenantSpec
		want string
	}{
		{"empty name", with(func(s *TenantSpec) { s.Name = "" }), "empty name"},
		{"separator in name", with(func(s *TenantSpec) { s.Name = "a=b" }), "separator characters"},
		{"zero rate", with(func(s *TenantSpec) { s.RatePerSec = 0 }), "rate must be positive"},
		{"negative rate", with(func(s *TenantSpec) { s.RatePerSec = -2 }), "rate must be positive"},
		{"NaN rate", with(func(s *TenantSpec) { s.RatePerSec = math.NaN() }), "rate must be positive"},
		{"infinite rate", with(func(s *TenantSpec) { s.RatePerSec = math.Inf(1) }), "rate must be positive"},
		{"unknown arrival", with(func(s *TenantSpec) { s.Arrival = "uniform" }), "unknown arrival"},
		{"empty arrival", with(func(s *TenantSpec) { s.Arrival = "" }), "unknown arrival"},
		{"zero gamma shape", with(func(s *TenantSpec) { s.Arrival, s.Shape = ArrivalGamma, 0 }), "gamma shape"},
		{"infinite gamma shape", with(func(s *TenantSpec) { s.Arrival, s.Shape = ArrivalGamma, math.Inf(1) }), "gamma shape"},
		{"empty mix", with(func(s *TenantSpec) { s.Funcs = nil }), "empty function mix"},
		{"negative zipf", with(func(s *TenantSpec) { s.Zipf = -1 }), "zipf exponent"},
		{"NaN zipf", with(func(s *TenantSpec) { s.Zipf = math.NaN() }), "zipf exponent"},
		{"empty function", with(func(s *TenantSpec) { s.Funcs[0].Name = "" }), "empty function name"},
		{"separator in function", with(func(s *TenantSpec) { s.Funcs[0].Name = "a:b" }), "separator characters"},
		{"duplicate function", with(func(s *TenantSpec) { s.Funcs = append(s.Funcs, s.Funcs[0]) }), "duplicate function"},
		{"negative weight", with(func(s *TenantSpec) { s.Funcs[0].Weight = -1 }), "bad weight"},
		{"NaN weight", with(func(s *TenantSpec) { s.Funcs[0].Weight = math.NaN() }), "bad weight"},
		{"zero weights", with(func(s *TenantSpec) { s.Funcs[0].Weight = 0 }), "weights sum to zero"},
		{"separator in class", with(func(s *TenantSpec) { s.Class = "a b" }), "separator characters"},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); err == nil {
			t.Errorf("%s: expected error containing %q, got nil", c.name, c.want)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.want)
		}
	}
	for _, good := range []TenantSpec{
		ok,
		with(func(s *TenantSpec) { s.Arrival, s.Shape = ArrivalGamma, 0.5 }),
		// With a zipf exponent the weights are ignored, so zero is fine.
		with(func(s *TenantSpec) { s.Zipf, s.Funcs[0].Weight = 1.1, 0 }),
		with(func(s *TenantSpec) { s.Class, s.Seed = ClassLatency, 42 }),
	} {
		if err := good.Validate(); err != nil {
			t.Errorf("valid spec %+v rejected: %v", good, err)
		}
	}
}

func TestClusterSpecValidate(t *testing.T) {
	ok := TenantSpec{Name: "a", RatePerSec: 1, Arrival: ArrivalPoisson,
		Funcs: []FuncShare{{Name: "json", Weight: 1}}}
	cases := []struct {
		name string
		spec ClusterSpec
		want string
	}{
		{"no tenants", ClusterSpec{Horizon: time.Second}, "no tenants"},
		{"no horizon", ClusterSpec{Tenants: []TenantSpec{ok}}, "horizon"},
		{"duplicate tenant", ClusterSpec{Tenants: []TenantSpec{ok, ok}, Horizon: time.Second}, "duplicate tenant"},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); err == nil {
			t.Errorf("%s: expected error containing %q", c.name, c.want)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.want)
		}
	}
	good := ClusterSpec{Tenants: []TenantSpec{ok}, Horizon: time.Second}
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestClusterSpecFunctionNames(t *testing.T) {
	spec := ClusterSpec{
		Horizon: time.Second,
		Tenants: []TenantSpec{
			{Name: "a", RatePerSec: 1, Arrival: ArrivalPoisson,
				Funcs: []FuncShare{{Name: "json", Weight: 1}, {Name: "html", Weight: 1}}},
			{Name: "b", RatePerSec: 1, Arrival: ArrivalPoisson,
				Funcs: []FuncShare{{Name: "json", Weight: 1}, {Name: "bert", Weight: 1}}},
		},
	}
	got := spec.FunctionNames()
	want := []string{"bert", "html", "json"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("FunctionNames = %v, want %v", got, want)
	}
}
