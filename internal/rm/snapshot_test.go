package rm

import (
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"adaptrm/internal/api"
	"adaptrm/internal/motiv"
	"adaptrm/internal/schedule"
)

// managerState is everything a snapshot must reproduce, in comparable
// form.
type managerState struct {
	Now      float64
	Stats    Stats
	Active   []SnapshotJob
	Current  []schedule.Segment
	Executed []schedule.Segment
	EventSeq uint64
}

func captureState(m *Manager) managerState {
	s := m.Snapshot()
	st := m.Stats()
	st.SchedulingTime = 0 // wall time, inherently non-deterministic
	return managerState{
		Now:      m.Now(),
		Stats:    st,
		Active:   s.Active,
		Current:  s.Current,
		Executed: s.Executed,
		EventSeq: m.EventSeq(),
	}
}

// driveTraffic applies a deterministic seeded workload; shared by the
// original and restored managers so their futures are identical ops.
func driveTraffic(t *testing.T, m *Manager, seed int64, ops int, start float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	apps := []string{"lambda1", "lambda2"}
	now := start
	var ids []int
	for i := 0; i < ops; i++ {
		switch rng.Intn(5) {
		case 0, 1:
			id, ok, _, err := m.Submit(now, apps[rng.Intn(len(apps))], now+1+rng.Float64()*9)
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			if ok {
				ids = append(ids, id)
			}
		case 2:
			now += rng.Float64() * 3
			if _, err := m.AdvanceTo(now); err != nil {
				t.Fatalf("advance: %v", err)
			}
		case 3:
			if len(ids) > 0 {
				if err := m.Cancel(ids[rng.Intn(len(ids))]); err != nil && !errors.Is(err, ErrNoSuchJob) {
					t.Fatalf("cancel: %v", err)
				}
			}
		case 4:
			_, _, err := m.SubmitBatch(now, []api.BatchItem{
				{App: apps[0], Deadline: now + 2 + rng.Float64()*8},
				{App: apps[1], Deadline: now + 2 + rng.Float64()*8},
			})
			if err != nil {
				t.Fatalf("batch: %v", err)
			}
		}
	}
}

// TestSnapshotRoundTrip drives seeded traffic, snapshots mid-flight,
// restores into a fresh manager (via a JSON round trip — the wire form
// durable persists), and checks (a) the restored state is byte-identical
// and (b) identical future traffic keeps both managers byte-identical,
// including event sequence numbering.
func TestSnapshotRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		m := newMgr(t, Options{RescheduleOnFinish: seed%2 == 0})
		var evs []api.Event
		m.SetEventSink(func(ev api.Event) { evs = append(evs, ev) })
		driveTraffic(t, m, seed, 60, 0)

		raw, err := json.Marshal(m.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		var snap Snapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			t.Fatal(err)
		}
		r := newMgr(t, Options{RescheduleOnFinish: seed%2 == 0})
		var revs []api.Event
		r.SetEventSink(func(ev api.Event) { revs = append(revs, ev) })
		if err := r.Restore(&snap); err != nil {
			t.Fatal(err)
		}
		if len(revs) != 0 {
			t.Fatalf("seed %d: Restore emitted %d events", seed, len(revs))
		}
		if a, b := captureState(m), captureState(r); !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: restored state differs:\n  orig %+v\n  rest %+v", seed, a, b)
		}

		// Identical futures: same ops → same states and same continued
		// event numbering.
		evs, revs = nil, nil
		start := m.Now()
		driveTraffic(t, m, seed+100, 40, start)
		driveTraffic(t, r, seed+100, 40, start)
		if a, b := captureState(m), captureState(r); !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: post-restore traffic diverged:\n  orig %+v\n  rest %+v", seed, a, b)
		}
		if !reflect.DeepEqual(evs, revs) {
			t.Fatalf("seed %d: post-restore events diverged (%d vs %d)", seed, len(evs), len(revs))
		}
	}
}

// TestRestoreValidation: Restore rejects nil snapshots, non-fresh
// managers, unknown apps, out-of-range ids and started ids that are not
// active.
func TestRestoreValidation(t *testing.T) {
	fresh := func() *Manager { return newMgr(t, Options{}) }
	if err := fresh().Restore(nil); !errors.Is(err, ErrRestore) {
		t.Errorf("nil snapshot: %v", err)
	}
	used := fresh()
	if _, _, _, err := used.Submit(0, "lambda1", 9); err != nil {
		t.Fatal(err)
	}
	if err := used.Restore(&Snapshot{NextID: 1}); !errors.Is(err, ErrRestore) {
		t.Errorf("non-fresh manager: %v", err)
	}
	if err := fresh().Restore(&Snapshot{
		NextID: 2,
		Active: []SnapshotJob{{ID: 1, App: "nope", Remaining: 1}},
	}); !errors.Is(err, ErrRestore) {
		t.Errorf("unknown app: %v", err)
	}
	if err := fresh().Restore(&Snapshot{
		NextID: 2,
		Active: []SnapshotJob{{ID: 7, App: "lambda1", Remaining: 1}},
	}); !errors.Is(err, ErrRestore) {
		t.Errorf("id out of range: %v", err)
	}
	if err := fresh().Restore(&Snapshot{NextID: 1, Started: []int{3}}); !errors.Is(err, ErrRestore) {
		t.Errorf("started not active: %v", err)
	}
}

// TestRestoreRejectsPointOutOfRange: a current-schedule placement whose
// point index lies outside its job's table would make the next advance
// index past the table, so Restore refuses the snapshot.
func TestRestoreRejectsPointOutOfRange(t *testing.T) {
	snap := func(point int) *Snapshot {
		return &Snapshot{
			NextID: 2,
			Active: []SnapshotJob{{ID: 1, App: "lambda1", Deadline: 20, Remaining: 1}},
			Current: []schedule.Segment{{Start: 0, End: 17, Placements: []schedule.Placement{
				{JobID: 1, Point: point},
			}}},
		}
	}
	points := motiv.Library().Get("lambda1").Len()
	for _, point := range []int{-1, points, 999} {
		if err := newMgr(t, Options{}).Restore(snap(point)); !errors.Is(err, ErrRestore) {
			t.Errorf("point %d of %d: %v, want ErrRestore", point, points, err)
		}
	}
	m := newMgr(t, Options{})
	if err := m.Restore(snap(points - 1)); err != nil {
		t.Fatalf("last point of the table: %v", err)
	}
	if _, err := m.AdvanceTo(1); err != nil {
		t.Fatal(err)
	}
}

// FuzzSnapshotRestore feeds arbitrary bytes through the recovery path a
// snapshot file takes — decode, Restore, advance, snapshot again — which
// must never panic, whatever the file holds.
func FuzzSnapshotRestore(f *testing.F) {
	seed, err := os.ReadFile(filepath.Join("testdata", "snapshot_motiv.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"next_id":2,"active":[{"id":1,"app":"lambda1","remaining":1}],"current":[{"start":0,"end":5,"placements":[{"job":1,"point":999}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Snapshot
		if json.Unmarshal(data, &s) != nil {
			return
		}
		m := newMgr(t, Options{})
		if m.Restore(&s) != nil {
			return
		}
		_, _ = m.AdvanceTo(m.Now() + 100)
		_ = m.Snapshot()
	})
}
