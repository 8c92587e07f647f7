package durable_test

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"adaptrm/internal/api"
	"adaptrm/internal/control"
	"adaptrm/internal/durable"
	"adaptrm/internal/fleet"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// goldenDir is the committed data dir the WAL golden pins: meta.json
// plus the segment files of device 0.
const goldenDir = "testdata/golden-wal"

var goldenMeta = durable.Meta{Devices: 1, Scheduler: "edf-mdf"}

// runGoldenScript drives a one-device motiv fleet through every manager
// event kind: a joint batch admission, a refinement swap, a rejection,
// clock advances with starts and completions, a cancellation and a
// controller-driven mode change. attach, when non-nil, sees the fleet
// before any traffic. It returns the fleet still open.
func runGoldenScript(t *testing.T, attach func(*fleet.Fleet)) *fleet.Fleet {
	t.Helper()
	ctl := control.New(control.Config{HighLatency: 1, EnterTicks: 1})
	f, err := fleet.New(testConfigs(1), fleet.Options{Refine: true, RefineWorkers: -1, Control: ctl})
	if err != nil {
		t.Fatal(err)
	}
	if attach != nil {
		attach(f)
	}
	svc := f.Service()
	br, err := svc.SubmitBatch(ctxBG, api.BatchSubmitRequest{Device: 0, At: 0, Items: []api.BatchItem{
		{App: "lambda1", Deadline: 9}, {App: "lambda2", Deadline: 8},
	}})
	if err != nil || len(br.Verdicts) != 2 || !br.Verdicts[0].Accepted || !br.Verdicts[1].Accepted {
		t.Fatalf("batch: %+v err=%v", br, err)
	}
	for f.Refiner().TryStep() {
	}
	// A synchronous op orders the script behind the swap post.
	if _, err := svc.Advance(ctxBG, api.AdvanceRequest{Device: 0, To: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(ctxBG, api.SubmitRequest{Device: 0, At: 1, App: "lambda2", Deadline: 2.5}); !errors.Is(err, api.ErrInfeasible) {
		t.Fatalf("submit at 1: %v, want a rejection", err)
	}
	if _, err := svc.Advance(ctxBG, api.AdvanceRequest{Device: 0, To: 2}); err != nil {
		t.Fatal(err)
	}
	sr, err := svc.Submit(ctxBG, api.SubmitRequest{Device: 0, At: 2, App: "lambda2", Deadline: 14})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Cancel(ctxBG, api.CancelRequest{Device: 0, JobID: sr.JobID}); err != nil {
		t.Fatal(err)
	}
	// Any observed admission latency clears the 1ns bar.
	ctl.Tick(1)
	if ctl.Mode() != control.ModeHeuristicOnly {
		t.Fatalf("controller mode = %v, want heuristic_only", ctl.Mode())
	}
	if _, err := svc.Advance(ctxBG, api.AdvanceRequest{Device: 0, To: 30}); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestWALGolden pins the segment-file bytes the writer produces for the
// golden script, frame headers and event JSON alike.
func TestWALGolden(t *testing.T) {
	dir := t.TempDir()
	st, err := durable.Open(dir, goldenMeta)
	if err != nil {
		t.Fatal(err)
	}
	var w *durable.Writer
	f := runGoldenScript(t, func(f *fleet.Fleet) {
		if w, err = durable.NewWriter(st, f, durable.Options{Fsync: durable.FsyncNever, SnapshotEvery: 1 << 20}); err != nil {
			t.Fatal(err)
		}
	})
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "dev-0000", "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments written: %v", err)
	}
	if *update {
		if err := os.RemoveAll(goldenDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(goldenDir, "dev-0000"), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range append([]string{"meta.json"}, relAll(t, dir, segs)...) {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(goldenDir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, err := filepath.Glob(filepath.Join(goldenDir, "dev-0000", "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(relAll(t, dir, segs), relAll(t, goldenDir, want)) {
		t.Fatalf("segment files %v, golden has %v", relAll(t, dir, segs), relAll(t, goldenDir, want))
	}
	types := map[api.EventType]bool{}
	for i, seg := range segs {
		got, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := os.ReadFile(want[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, exp) {
			t.Fatalf("%s differs from the golden segment:\n got %q\nwant %q", filepath.Base(seg), got, exp)
		}
		for _, line := range bytes.Split(got, []byte(`{"device":`))[1:] {
			for _, ty := range managerEventTypes {
				if bytes.Contains(line, []byte(`"type":"`+string(ty)+`"`)) {
					types[ty] = true
				}
			}
		}
	}
	for _, ty := range managerEventTypes {
		if !types[ty] {
			t.Errorf("golden log lacks a %s event", ty)
		}
	}
}

var managerEventTypes = []api.EventType{
	api.EventJobAdmitted, api.EventJobRejected, api.EventJobStarted,
	api.EventJobCompleted, api.EventJobCancelled, api.EventScheduleChanged,
	api.EventScheduleSwapped, api.EventModeChanged, api.EventClockAdvanced,
}

func relAll(t *testing.T, base string, paths []string) []string {
	t.Helper()
	out := make([]string, len(paths))
	for i, p := range paths {
		r, err := filepath.Rel(base, p)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = r
	}
	return out
}

// TestWALGoldenRecovers opens the committed golden data dir and
// recovers it through fleet.Recover: the rebuilt device must match the
// live script's final state.
func TestWALGoldenRecovers(t *testing.T) {
	live := runGoldenScript(t, nil)
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := live.DeviceSnapshot(0)
	if err != nil {
		t.Fatal(err)
	}

	st, err := durable.Open(copyDir(t, goldenDir), goldenMeta)
	if err != nil {
		t.Fatal(err)
	}
	ds := st.Devices[0]
	if ds == nil || ds.Snapshot != nil || len(ds.Events) == 0 {
		t.Fatalf("golden dir recovered as %+v, want a log-only device", ds)
	}
	f, res, err := fleet.Recover(testConfigs(1), fleet.Options{},
		map[int]fleet.DeviceRecovery{0: {Events: ds.Events}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if r := res[0]; r.AppliedSeq != want.EventSeq || r.Dropped != 0 {
		t.Fatalf("recovery result %+v, want applied seq %d and nothing dropped", r, want.EventSeq)
	}
	got, err := f.DeviceSnapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normSnap(got), normSnap(want)) {
		t.Fatalf("recovered state differs:\n got %+v\nwant %+v", normSnap(got), normSnap(want))
	}
}
