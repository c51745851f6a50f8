package main

import (
	"slices"
	"strings"
	"testing"
)

// TestSchemeListingStable pins the -schemes listing: figure order, the
// same on every call, one name per scheme.
func TestSchemeListingStable(t *testing.T) {
	want := []string{"linux-nora", "linux-ra", "reap", "faast", "faasnap", "snapbpf", "pvptes"}
	for i := 0; i < 3; i++ {
		if got := schemeNames(); !slices.Equal(got, want) {
			t.Fatalf("listing %d = %v, want %v", i, got, want)
		}
	}
	for i, s := range schemes {
		if strings.ToLower(s.Name) != want[i] {
			t.Errorf("scheme %d is %q, listed as %q", i, s.Name, want[i])
		}
	}
}
