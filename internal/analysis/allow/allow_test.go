package allow

import "testing"

func TestParse(t *testing.T) {
	cases := []struct {
		text     string
		ok       bool
		analyzer string
		reason   string
	}{
		{"//lint:allow detnondet seeded by the fault plan", true, "detnondet", "seeded by the fault plan"},
		{"//lint:allow maporder order folds into a sum", true, "maporder", "order folds into a sum"},
		{"//lint:allow", true, "", ""},
		{"//lint:allow simtime", true, "simtime", ""},
		{"//lint:allow unitsafety reason here // want `x`", true, "unitsafety", "reason here"},
		{"//lint:allowance is not a directive", false, "", ""},
		{"// ordinary comment", false, "", ""},
		{"//lint:allow\tmaporder tab-separated fields", true, "maporder", "tab-separated fields"},
	}
	for _, c := range cases {
		d, ok := Parse(c.text)
		if ok != c.ok || d.Analyzer != c.analyzer || d.Reason != c.reason {
			t.Errorf("Parse(%q) = (%q, %q, %v), want (%q, %q, %v)",
				c.text, d.Analyzer, d.Reason, ok, c.analyzer, c.reason, c.ok)
		}
	}
}

func TestItoa(t *testing.T) {
	for _, n := range []int{0, 1, 9, 10, 123, 99999} {
		got := itoa(n)
		want := map[int]string{0: "0", 1: "1", 9: "9", 10: "10", 123: "123", 99999: "99999"}[n]
		if got != want {
			t.Errorf("itoa(%d) = %q, want %q", n, got, want)
		}
	}
}
