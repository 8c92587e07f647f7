package schedcache

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"adaptrm/internal/core"
	"adaptrm/internal/exmem"
	"adaptrm/internal/job"
	"adaptrm/internal/motiv"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// goldenTier fills a shared tier through the live store paths: three
// heuristic MMKP-MDF entries and one exact EX-MEM entry.
func goldenTier(t *testing.T) *Shared {
	t.Helper()
	plat := motiv.Platform()
	tier := NewShared()
	c := New(Params{})
	c.AttachShared(tier)
	for _, fix := range []struct {
		jobs job.Set
		t    float64
	}{
		{job.Set{testJob(1, "lambda1", 0, 9, 1), testJob(2, "lambda2", 0, 5, 1)}, 0},
		{job.Set{testJob(3, "lambda1", 0, 30, 1)}, 0},
		{job.Set{testJob(4, "lambda2", 2, 12, 0.5)}, 2},
	} {
		k, err := core.New().Schedule(fix.jobs, plat, fix.t)
		if err != nil {
			t.Fatal(err)
		}
		c.Store(fix.jobs, plat, fix.t, k)
	}
	exact := job.Set{testJob(5, "lambda1", 0, 9, 1), testJob(6, "lambda2", 0, 8, 1)}
	k, err := exmem.New().Schedule(exact, plat, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.StoreExact(exact, plat, 0, k)
	return tier
}

// TestSharedSaveGolden pins the warm-file bytes Save writes.
func TestSharedSaveGolden(t *testing.T) {
	got := saveBytes(t, goldenTier(t))
	path := filepath.Join("testdata", "shared_tier.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("warm file differs from the golden file:\n got %s\nwant %s", got, want)
	}
	for _, must := range []string{`"exact":true`, `"assignment":[`} {
		if !bytes.Contains(want, []byte(must)) {
			t.Errorf("golden warm file lacks %s", must)
		}
	}
	// The pinned file loads into a fresh tier that saves the same bytes.
	warmed := NewShared()
	if err := warmed.Load(bytes.NewReader(want)); err != nil {
		t.Fatal(err)
	}
	if again := saveBytes(t, warmed); !bytes.Equal(again, want) {
		t.Fatalf("Load→Save of the golden file differs:\n got %s\nwant %s", again, want)
	}
}
