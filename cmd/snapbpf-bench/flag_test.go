package main

import (
	"strings"
	"testing"

	"snapbpf/internal/experiments"
)

func experimentIDs() []string {
	var ids []string
	for _, e := range experiments.All() {
		ids = append(ids, e.ID)
	}
	return ids
}

// TestExpFlagRejectsUnknownIDs pins the -exp contract: every listed id
// must name an experiment. An unknown id fails the whole run and is
// named in the error, even when it sits next to valid ones.
func TestExpFlagRejectsUnknownIDs(t *testing.T) {
	ids := experimentIDs()
	if want, err := parseExpFlag("all", ids); err != nil || want != nil {
		t.Errorf(`parseExpFlag("all") = %v, %v; want the nil (every experiment) set`, want, err)
	}
	want, err := parseExpFlag("overheads, table1", ids)
	if err != nil || len(want) != 2 || !want["overheads"] || !want["table1"] {
		t.Errorf("parseExpFlag(overheads, table1) = %v, %v", want, err)
	}
	for _, tc := range []struct{ spec, named string }{
		{"overheads,bogus", `"bogus"`},
		{"bogus", `"bogus"`},
		{"table1,,fig4", `""`},
		{"", `""`},
		{"Table1", `"Table1"`},
	} {
		_, err := parseExpFlag(tc.spec, ids)
		if err == nil {
			t.Errorf("parseExpFlag(%q) silently accepted", tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.named) {
			t.Errorf("parseExpFlag(%q) error %q does not name %s", tc.spec, err, tc.named)
		}
	}
	if _, err := parseExpFlag("bogus,overheads,nope", ids); err == nil ||
		!strings.Contains(err.Error(), `"bogus"`) || !strings.Contains(err.Error(), `"nope"`) {
		t.Errorf("error %v does not name every unknown id", err)
	}
}

// TestKeepaliveFlagValidation pins the cluster flags: -keepalive -1
// (the default) keeps the default sweep, a budget >= 0 selects one
// cell, and any other negative value is an error instead of a silent
// fallback to the default sweep.
func TestKeepaliveFlagValidation(t *testing.T) {
	if cp, err := clusterParams(0, "", -1); err != nil || cp != nil {
		t.Errorf("defaults: got %+v, %v; want no overrides", cp, err)
	}
	for _, k := range []int{0, 2} {
		cp, err := clusterParams(0, "", k)
		if err != nil || cp == nil || len(cp.Budgets) != 1 || cp.Budgets[0] != k {
			t.Errorf("-keepalive %d: got %+v, %v", k, cp, err)
		}
	}
	for _, k := range []int{-2, -5} {
		cp, err := clusterParams(0, "", k)
		if err == nil {
			t.Errorf("-keepalive %d silently accepted as %+v", k, cp)
			continue
		}
		if !strings.Contains(err.Error(), "-keepalive") {
			t.Errorf("-keepalive %d error %q does not name the flag", k, err)
		}
	}
	cp, err := clusterParams(8, "affinity", -1)
	if err != nil || cp == nil || cp.Hosts != 8 || len(cp.Routers) != 1 || cp.Budgets != nil {
		t.Errorf("-hosts 8 -router affinity: got %+v, %v", cp, err)
	}
	if _, err := clusterParams(0, "affinity,bogus", -1); err == nil {
		t.Error("unknown router silently accepted")
	}
}

// TestFuncsFlagRejectsDuplicates pins the -funcs contract: an empty
// list is the full suite, an unknown name fails, and a name listed
// twice fails and is named in the error instead of registering two
// snapshots under one file name and folding their rows.
func TestFuncsFlagRejectsDuplicates(t *testing.T) {
	if fns, err := parseFuncsFlag(""); err != nil || fns != nil {
		t.Errorf(`parseFuncsFlag("") = %v, %v; want the nil (full suite) list`, fns, err)
	}
	fns, err := parseFuncsFlag("json, image")
	if err != nil || len(fns) != 2 || fns[0].Name != "json" || fns[1].Name != "image" {
		t.Errorf("parseFuncsFlag(json, image) = %v, %v", fns, err)
	}
	for _, spec := range []string{"json,json", "json,image, json"} {
		_, err := parseFuncsFlag(spec)
		if err == nil || !strings.Contains(err.Error(), `"json"`) {
			t.Errorf("parseFuncsFlag(%q) error %v does not name the repeated function", spec, err)
		}
	}
	if _, err := parseFuncsFlag("json,bogus"); err == nil {
		t.Error("unknown function silently accepted")
	}
}
