package runner

import (
	"encoding/json"
	"testing"

	"repro/internal/params"
)

// TestProgCacheHitIdentical runs the same Spec cell on a cold and a warm
// program cache: the second run links nothing and compiles nothing (cache
// hit), and its full result must be byte-identical to the cold run's.
func TestProgCacheHitIdentical(t *testing.T) {
	cell := Cell{
		Exp:      "cachetest",
		Kind:     Spec,
		Workload: "lbm",
		Scheme:   params.TT,
		EWMicros: params.DefaultEWMicros,
		Seed:     3,
		Scale:    1,
		Threads:  2,
	}
	cache := NewProgCache()

	cold, err := RunCell(cell, cache)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := cache.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("cold run: want 0 hits / 1 miss, got %d / %d", hits, misses)
	}

	warm, err := RunCell(cell, cache)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := cache.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("warm run: want 1 hit / 1 miss, got %d / %d", hits, misses)
	}

	cj, err := json.Marshal(cold)
	if err != nil {
		t.Fatal(err)
	}
	wj, err := json.Marshal(warm)
	if err != nil {
		t.Fatal(err)
	}
	if string(cj) != string(wj) {
		t.Errorf("cache-hit cell result differs from cache-miss result:\ncold: %s\nwarm: %s", cj, wj)
	}
}
