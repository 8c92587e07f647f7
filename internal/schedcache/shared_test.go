package schedcache

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adaptrm/internal/core"
	"adaptrm/internal/job"
	"adaptrm/internal/motiv"
	"adaptrm/internal/schedule"
)

func sharedFixtureEntry(energy float64, exact bool, point int) *sharedEntry {
	return &sharedEntry{
		segments: []schedule.Segment{{
			Start:      0,
			End:        1,
			Placements: []schedule.Placement{{JobID: 0, Point: point}},
		}},
		assignment: []int{point},
		njobs:      1,
		energy:     energy,
		exact:      exact,
	}
}

func saveBytes(t *testing.T, s *Shared) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The merge must be order-independent: any promotion order over the same
// offers converges to the same tier contents, byte-identical under Save.
func TestSharedMergeDeterministic(t *testing.T) {
	offers := []*sharedEntry{
		sharedFixtureEntry(3.0, false, 0),
		sharedFixtureEntry(2.0, false, 1),
		sharedFixtureEntry(2.0, true, 2), // exact beats heuristic at equal energy
		sharedFixtureEntry(5.0, true, 3),
	}
	orders := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}, {1, 3, 0, 2}}
	var want []byte
	for _, ord := range orders {
		s := NewShared()
		for _, i := range ord {
			s.promote(Signature("sig-a"), offers[i])
		}
		got := saveBytes(t, s)
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("promotion order %v changed tier contents:\n%s\nvs\n%s", ord, got, want)
		}
	}
	// The winner is the exact energy-2.0 entry.
	s := NewShared()
	for _, e := range offers {
		s.promote(Signature("sig-a"), e)
	}
	e, ok := s.get(Signature("sig-a"))
	if !ok || e.energy != 2.0 || !e.exact {
		t.Fatalf("winner = %+v, want exact entry at energy 2.0", e)
	}
	// Re-offering the winner is idempotent (dropped, contents unchanged).
	before := saveBytes(t, s)
	if s.promote(Signature("sig-a"), sharedFixtureEntry(2.0, true, 2)) {
		t.Error("identical re-offer accepted")
	}
	if !bytes.Equal(saveBytes(t, s), before) {
		t.Error("idempotent re-offer changed contents")
	}
	st := s.Stats()
	if st.Entries != 1 || st.ExactEntries != 1 {
		t.Fatalf("stats = %+v, want 1 entry / 1 exact", st)
	}
}

// One device's store must serve every cache attached to the same tier:
// the first foreign lookup hits the shared tier and installs into the
// local L1, the second is a plain L1 hit.
func TestSharedCrossCachePromotion(t *testing.T) {
	plat := motiv.Platform()
	tier := NewShared()
	a := New(Params{})
	a.AttachShared(tier)
	b := New(Params{})
	b.AttachShared(tier)

	jobs := job.Set{testJob(1, "lambda1", 0, 9, 1), testJob(2, "lambda2", 0, 5, 1)}
	k, err := core.New().Schedule(jobs, plat, 0)
	if err != nil {
		t.Fatal(err)
	}
	a.Store(jobs, plat, 0, k)
	if st := a.Stats(); st.Promotions != 1 {
		t.Fatalf("store did not promote: %+v", st)
	}

	// Device B, same shape at a later instant with different IDs.
	later := job.Set{testJob(8, "lambda2", 5, 10, 1), testJob(9, "lambda1", 5, 14, 1)}
	got, ok := b.Lookup(later, plat, 5)
	if !ok {
		t.Fatal("cross-device lookup missed the shared tier")
	}
	if err := got.Validate(plat, later, 5); err != nil {
		t.Fatalf("shared-tier schedule invalid: %v", err)
	}
	if st := b.Stats(); st.SharedHits != 1 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("first lookup stats = %+v, want 1 shared hit", st)
	}
	if _, ok := b.Lookup(later, plat, 5); !ok {
		t.Fatal("second lookup missed")
	}
	if st := b.Stats(); st.Hits != 1 || st.SharedHits != 1 {
		t.Fatalf("second lookup stats = %+v, want L1 hit after install", st)
	}
	if hr := b.Stats().HitRate(); hr != 1 {
		t.Fatalf("hit rate = %v, want 1 (shared hits count as served)", hr)
	}
}

// Save → Load → Save must round-trip byte-identically, and the loaded
// tier must serve lookups exactly like the original.
func TestSharedSaveLoadRoundTrip(t *testing.T) {
	plat := motiv.Platform()
	tier := NewShared()
	c := New(Params{})
	c.AttachShared(tier)
	s := core.New()
	for _, fix := range []struct {
		jobs job.Set
		t    float64
	}{
		{job.Set{testJob(1, "lambda1", 0, 9, 1), testJob(2, "lambda2", 0, 5, 1)}, 0},
		{job.Set{testJob(3, "lambda1", 0, 30, 1)}, 0},
		{job.Set{testJob(4, "lambda2", 2, 12, 1)}, 2},
	} {
		k, err := s.Schedule(fix.jobs, plat, fix.t)
		if err != nil {
			t.Fatal(err)
		}
		c.Store(fix.jobs, plat, fix.t, k)
	}
	first := saveBytes(t, tier)

	warmed := NewShared()
	if err := warmed.Load(bytes.NewReader(first)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, warmed), first) {
		t.Fatal("Save→Load→Save is not byte-identical")
	}
	if st := warmed.Stats(); st.Loaded != int64(tier.Len()) {
		t.Fatalf("loaded %d entries, tier has %d", st.Loaded, tier.Len())
	}
	// Loading the same file again is a no-op.
	if err := warmed.Load(bytes.NewReader(first)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, warmed), first) {
		t.Fatal("re-load changed tier contents")
	}

	// A cold cache over the warmed tier serves the original problems.
	cold := New(Params{})
	cold.AttachShared(warmed)
	jobs := job.Set{testJob(10, "lambda1", 0, 9, 1), testJob(11, "lambda2", 0, 5, 1)}
	got, ok := cold.Lookup(jobs, plat, 0)
	if !ok {
		t.Fatal("warmed tier did not serve the lookup")
	}
	if err := got.Validate(plat, jobs, 0); err != nil {
		t.Fatalf("warmed schedule invalid: %v", err)
	}
}

func TestSharedLoadRejectsMalformed(t *testing.T) {
	for name, in := range map[string]string{
		"version":     `{"version":2,"entries":[]}`,
		"empty sig":   `{"version":1,"entries":[{"sig":"","njobs":1,"energy":1,"segments":[{"start":0,"end":1}]}]}`,
		"no jobs":     `{"version":1,"entries":[{"sig":"x","njobs":0,"energy":1,"segments":[{"start":0,"end":1}]}]}`,
		"no segments": `{"version":1,"entries":[{"sig":"x","njobs":1,"energy":1,"segments":[]}]}`,
		"bad assign":  `{"version":1,"entries":[{"sig":"x","njobs":2,"energy":1,"assignment":[0],"segments":[{"start":0,"end":1}]}]}`,
		"bad job":     `{"version":1,"entries":[{"sig":"x","njobs":1,"energy":1,"segments":[{"start":0,"end":1,"placements":[{"job":7,"point":0}]}]}]}`,
	} {
		s := NewShared()
		if err := s.Load(strings.NewReader(in)); err == nil {
			t.Errorf("%s: malformed warm file accepted", name)
		}
	}
}

// FuzzSharedLoad feeds arbitrary warm files to Load, which must never
// panic; whatever it accepts must save to bytes that reload into a
// fresh tier and save identically again.
func FuzzSharedLoad(f *testing.F) {
	seed, err := os.ReadFile(filepath.Join("testdata", "shared_tier.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"version":1,"entries":[{"sig":"x","njobs":1,"energy":1,"segments":[{"start":0,"end":1,"placements":[]}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewShared()
		if s.Load(bytes.NewReader(data)) != nil {
			return
		}
		first := saveBytes(t, s)
		again := NewShared()
		if err := again.Load(bytes.NewReader(first)); err != nil {
			t.Fatalf("saved tier does not reload: %v\n%s", err, first)
		}
		if second := saveBytes(t, again); !bytes.Equal(second, first) {
			t.Fatalf("Save→Load→Save changed the bytes:\n%s\n%s", first, second)
		}
	})
}

// StoreExact replaces the L1 entry and wins the merge against an
// equal-energy heuristic promotion.
func TestStoreExactPreferredInMerge(t *testing.T) {
	plat := motiv.Platform()
	tier := NewShared()
	c := New(Params{})
	c.AttachShared(tier)
	jobs := job.Set{testJob(1, "lambda1", 0, 9, 1)}
	k, err := core.New().Schedule(jobs, plat, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Store(jobs, plat, 0, k)
	if exact, ok := c.ProbeShared(jobs, plat, 0); !ok || exact {
		t.Fatalf("probe after heuristic store = (exact=%v, ok=%v)", exact, ok)
	}
	c.StoreExact(jobs, plat, 0, k)
	if exact, ok := c.ProbeShared(jobs, plat, 0); !ok || !exact {
		t.Fatalf("probe after exact store = (exact=%v, ok=%v)", exact, ok)
	}
	if st := c.Stats(); st.Promotions != 2 {
		t.Fatalf("promotions = %d, want 2 (exact replaced heuristic)", st.Promotions)
	}
}

// The shared-tier probe must not allocate: the signature is built in
// cache scratch and the map is indexed through the byteslice-to-string
// conversion elision. The CI allocs gate pins the benchmark flavour of
// this at 0 allocs/op.
func TestProbeSharedAllocFree(t *testing.T) {
	plat := motiv.Platform()
	tier := NewShared()
	c := New(Params{})
	c.AttachShared(tier)
	jobs := job.Set{testJob(1, "lambda1", 0, 9, 1), testJob(2, "lambda2", 0, 5, 1)}
	k, err := core.New().Schedule(jobs, plat, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Store(jobs, plat, 0, k)
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := c.ProbeShared(jobs, plat, 0); !ok {
			t.Fatal("probe missed")
		}
	}); n != 0 {
		t.Fatalf("ProbeShared allocates %v per run, want 0", n)
	}
}

// BenchmarkSharedTierLookup measures the fleet-wide tier probe — scratch
// signature build plus shared map lookup — and is pinned at 0 allocs/op
// by benchmarks/allocs-baseline.txt.
func BenchmarkSharedTierLookup(b *testing.B) {
	plat := motiv.Platform()
	tier := NewShared()
	c := New(Params{})
	c.AttachShared(tier)
	jobs := job.Set{testJob(1, "lambda1", 0, 9, 1), testJob(2, "lambda2", 0, 5, 1)}
	k, err := core.New().Schedule(jobs, plat, 0)
	if err != nil {
		b.Fatal(err)
	}
	c.Store(jobs, plat, 0, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.ProbeShared(jobs, plat, 0); !ok {
			b.Fatal("probe missed")
		}
	}
}
