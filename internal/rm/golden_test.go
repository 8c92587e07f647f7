package rm

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"adaptrm/internal/control"
	"adaptrm/internal/exmem"
	"adaptrm/internal/motiv"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// checkGoldenBytes compares got with testdata/name byte for byte, or
// rewrites the file under -update.
func checkGoldenBytes(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
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
		t.Fatalf("%s differs from the golden file:\n got %s\nwant %s", name, got, want)
	}
}

// goldenSnapshotScript drives a motiv manager through a joint batch, a
// rejection, an accepted refinement swap, a cancellation and a switch
// to ModeHeuristicOnly, and returns it mid-flight with jobs active.
func goldenSnapshotScript(t *testing.T) *Manager {
	t.Helper()
	m, _ := collect(t, Options{})
	vs, _, err := m.SubmitBatch(0, batchOf([]string{"lambda1", "lambda2"}, []float64{9, 8}))
	if err != nil || len(vs) != 2 || !vs[0].Accepted || !vs[1].Accepted {
		t.Fatalf("batch: %+v err=%v", vs, err)
	}
	if _, ok, _, err := m.Submit(1, "lambda2", 6); err != nil || ok {
		t.Fatalf("submit at 1: accepted=%v err=%v, want a clean rejection", ok, err)
	}
	jobs, now, incumbent, ok := m.RefineSnapshot()
	if !ok {
		t.Fatal("nothing to refine")
	}
	k, err := exmem.New().ScheduleBudgeted(jobs, motiv.Platform(), now, incumbent)
	if err != nil {
		t.Fatalf("refinement: %v", err)
	}
	if !m.SwapSchedule(k) {
		t.Fatal("refined schedule not swapped in")
	}
	if _, err := m.AdvanceTo(2); err != nil {
		t.Fatal(err)
	}
	id, ok, _, err := m.Submit(2, "lambda2", 14)
	if err != nil || !ok {
		t.Fatalf("submit at 2: accepted=%v err=%v", ok, err)
	}
	if err := m.Cancel(id); err != nil {
		t.Fatal(err)
	}
	m.SetMode(control.ModeHeuristicOnly)
	if _, err := m.AdvanceTo(3); err != nil {
		t.Fatal(err)
	}
	return m
}

// goldenSnapshotBytes is the wire form durable persists, with the one
// wall-clock field zeroed.
func goldenSnapshotBytes(t *testing.T, m *Manager) []byte {
	t.Helper()
	s := m.Snapshot()
	s.SchedulingTimeNs = 0
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSnapshotGolden pins the snapshot wire form byte for byte:
// segment and placement field names, omitempty behaviour, field order
// and float spelling.
func TestSnapshotGolden(t *testing.T) {
	m := goldenSnapshotScript(t)
	checkGoldenBytes(t, "snapshot_motiv.json", goldenSnapshotBytes(t, m))
	// The pinned bytes restore into a manager that snapshots to the
	// same bytes again.
	var s Snapshot
	if err := json.Unmarshal(goldenSnapshotBytes(t, m), &s); err != nil {
		t.Fatal(err)
	}
	fresh := newMgr(t, Options{})
	if err := fresh.Restore(&s); err != nil {
		t.Fatal(err)
	}
	if got := goldenSnapshotBytes(t, fresh); !bytes.Equal(got, goldenSnapshotBytes(t, m)) {
		t.Fatalf("restored snapshot differs:\n got %s\nwant %s", got, goldenSnapshotBytes(t, m))
	}
}
