package main

import (
	"strings"
	"testing"
)

// TestAbsintReportOutput checks the report: both built-in programs
// appear and both verify.
func TestAbsintReportOutput(t *testing.T) {
	var sb strings.Builder
	if err := writeReport(&sb, false); err != nil {
		t.Fatalf("built-in programs must verify cleanly: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"program snapbpf-capture: OK, 45 insns\n",
		"program snapbpf-prefetch: OK, 116 insns\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
