package exmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"adaptrm/internal/core"
	"adaptrm/internal/dse"
	"adaptrm/internal/platform"
	"adaptrm/internal/schedule"
	"adaptrm/internal/workload"
)

// goldenMode is one search configuration of the search-effort golden.
type goldenMode struct {
	name string
	opt  Options
	// maxJobs limits the mode to cases of at most this many jobs.
	maxJobs int
	// budgeted runs ScheduleBudgeted against the MMKP-MDF energy, on the
	// cases MMKP-MDF schedules.
	budgeted bool
	// want is the FNV-64a fingerprint of every covered case's outcome.
	want uint64
	// budgets is how many covered cases end in ErrBudget.
	budgets int
}

// goldenNodeLimit is the per-search node budget of every golden mode.
const goldenNodeLimit = 10_000

// TestSearchEffortGolden pins the search itself, not just its optima:
// over the seed-1 Table III suite on the Odroid XU4 library, each
// case's schedule, error, energy bits, Nodes, MemoHits and MemoEntries
// must hash to the recorded fingerprint in three modes. The pruned mode
// covers every case; the pure-exhaustive mode the 1–2-job cases; the
// budgeted mode every case MMKP-MDF schedules, against its energy. All
// three run under a node budget small enough that some cases run out of
// it, so the budget-out path is pinned too. A change that only makes
// each node cheaper must leave every fingerprint as it is; a change to
// the visit order, pruning or memo keys moves them.
func TestSearchEffortGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The fingerprint covers float bits, and on other architectures
		// the compiler may fuse the search's multiply-adds.
		t.Skipf("fingerprint recorded on amd64; %s may round differently", runtime.GOARCH)
	}
	plat := platform.OdroidXU4()
	lib, err := dse.StandardLibrary(plat)
	if err != nil {
		t.Fatal(err)
	}
	cases, err := workload.Suite(lib, workload.Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	modes := []goldenMode{
		{name: "pruned", opt: Options{NodeLimit: goldenNodeLimit}, maxJobs: 4,
			want: 0x5bbbc4b6e5032c28, budgets: 225},
		{name: "pure", opt: Options{NodeLimit: goldenNodeLimit, PureExhaustive: true}, maxJobs: 2,
			want: 0xf062bf70531a98c3, budgets: 0},
		{name: "budgeted", opt: Options{NodeLimit: goldenNodeLimit}, maxJobs: 4, budgeted: true,
			want: 0x0bbd4a5e9eb0d872, budgets: 192},
	}
	mdf := core.New()
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			s := NewWithOptions(m.opt)
			h := fnv.New64a()
			covered, budgets := 0, 0
			for ci := range cases {
				c := &cases[ci]
				if len(c.Jobs) > m.maxJobs {
					continue
				}
				var k *schedule.Schedule
				var err error
				if m.budgeted {
					mk, merr := mdf.Schedule(c.Jobs, plat, c.T0)
					if merr != nil {
						continue
					}
					k, err = s.ScheduleBudgeted(c.Jobs, plat, c.T0, mk.Energy(c.Jobs))
				} else {
					k, err = s.Schedule(c.Jobs, plat, c.T0)
				}
				covered++
				if errors.Is(err, ErrBudget) {
					budgets++
				}
				writeOutcome(h, c, k, err, s.LastStats())
			}
			got := h.Sum64()
			t.Logf("%d cases, %d budget-outs, fingerprint %#016x", covered, budgets, got)
			if budgets != m.budgets {
				t.Errorf("%d budget-outs, want %d", budgets, m.budgets)
			}
			if got != m.want {
				t.Errorf("fingerprint %#016x, want %#016x", got, m.want)
			}
		})
	}
}

// writeOutcome hashes one case's full search outcome: the schedule down
// to its float bits, the error text, the energy bits and the effort
// counters.
func writeOutcome(h hash.Hash64, c *workload.Case, k *schedule.Schedule, err error, st Stats) {
	var b []byte
	b = append(b, c.Name...)
	if err != nil {
		b = append(b, err.Error()...)
	}
	if k != nil {
		b = append(b, k.String()...)
		for _, seg := range k.Segments {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(seg.Start))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(seg.End))
		}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(k.Energy(c.Jobs)))
	}
	b = fmt.Appendf(b, "|%d|%d|%d;", st.Nodes, st.MemoHits, st.MemoEntries)
	h.Write(b)
}
