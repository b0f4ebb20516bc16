package main

import (
	"strings"
	"testing"

	"cloudburst/internal/bench"
)

// TestListingIsRegistryOrder: -list names every registry experiment,
// once each, in the order -run all runs them.
func TestListingIsRegistryOrder(t *testing.T) {
	all, err := bench.Lookup("all")
	lines := strings.Split(strings.TrimSuffix(listing(), "\n"), "\n")
	if err != nil || len(lines) != len(all) {
		t.Fatalf("-list has %d lines, Lookup(all) %d experiments (err %v)", len(lines), len(all), err)
	}
	for i, e := range all {
		if !strings.HasPrefix(lines[i], e.Name+" ") {
			t.Errorf("-list line %d is %q, want experiment %q", i, lines[i], e.Name)
		}
	}
}
