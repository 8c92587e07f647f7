package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"

	"adaptrm/internal/api"
	"adaptrm/internal/core"
	"adaptrm/internal/fleet"
	"adaptrm/internal/httpapi"
	"adaptrm/internal/motiv"
	"adaptrm/internal/placement"
	"adaptrm/internal/router"
)

func sp(dev int32, start, end int64) span { return span{device: dev, start: start, end: end} }

func TestSelfTimeSubtractsChildren(t *testing.T) {
	parent := sp(0, 100, 200)
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{sp(0, 110, 130)}, 80},
		{"disjoint children", []span{sp(0, 110, 130), sp(0, 150, 160)}, 70},
		{"overlapping children count once", []span{sp(0, 110, 130), sp(0, 120, 140)}, 70},
		{"nested child counts once", []span{sp(0, 110, 190), sp(0, 120, 130)}, 20},
		{"child clipped to parent", []span{sp(0, 90, 110), sp(0, 190, 250)}, 80},
		{"child outside parent", []span{sp(0, 10, 50), sp(0, 300, 400)}, 100},
		{"child covers parent", []span{sp(0, 50, 250)}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestNestMatchesDeviceAndTime(t *testing.T) {
	parents := []span{sp(0, 0, 10), sp(1, 2, 8), sp(0, 20, 30)}
	children := []span{sp(0, 1, 2), sp(1, 3, 4), sp(0, 12, 14), sp(0, 21, 22), sp(0, 25, 29), sp(2, 5, 6)}
	got := nest(parents, children)
	want := [][]int{{0}, {1}, {3, 4}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("nest = %v, want %v", got, want)
	}
}

func TestBreakdownSumsToRoot(t *testing.T) {
	roots := []span{sp(0, 0, 100), sp(1, 10, 60)}
	mid := []span{sp(0, 10, 90), sp(1, 20, 50)}
	leaf := []span{sp(0, 20, 30), sp(1, 25, 30), sp(0, 40, 60)}
	selfs := breakdown([][]span{roots, mid, leaf})
	want := [][]int64{{20, 20}, {50, 25}, {30, 5}}
	if !reflect.DeepEqual(selfs, want) {
		t.Fatalf("breakdown = %v, want %v", selfs, want)
	}
	for r, root := range roots {
		var sum int64
		for lvl := range selfs {
			sum += selfs[lvl][r]
		}
		if sum != root.dur() {
			t.Errorf("root %d: self times sum to %d, want %d", r, sum, root.dur())
		}
	}
}

// optionalSet lists which optional interfaces a service implements.
func optionalSet(svc api.Service) [5]bool {
	_, b := svc.(api.BatchService)
	_, w := svc.(api.WatchService)
	_, q := svc.(interface{ QueueDepths() []int })
	_, s := svc.(interface{ DeviceEventSeqs() []uint64 })
	_, m := svc.(interface{ WriteMetrics(io.Writer) error })
	return [5]bool{b, w, q, s, m}
}

func TestTraceServiceForwardsOptionalInterfaces(t *testing.T) {
	f, err := fleet.New([]fleet.DeviceConfig{{Platform: motiv.Platform(), Library: motiv.Library(), Scheduler: core.New()}}, fleet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rt, err := router.New([]router.Backend{{Name: "node0", Service: f.Service()}}, placement.Modulo(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, svc := range []api.Service{f.Service(), rt, httpapi.NewClient("http://127.0.0.1:1", "", nil)} {
		wrapped, err := traceService(svc, newRecorder(), layerService)
		if err != nil {
			t.Fatalf("%T: %v", svc, err)
		}
		if got, want := optionalSet(wrapped), optionalSet(svc); got != want {
			t.Errorf("%T: wrapper implements %v, inner %v", svc, got, want)
		}
	}
}

// TestMetricCatalogueMatchesBenchmarkJSON pins the metric names, units
// and workloads the program reports to the ones BENCHMARK.json declares.
func TestMetricCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: program reports %d metrics, BENCHMARK.json lists %d", kind, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: program %s [%s], BENCHMARK.json %s [%s]", kind, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", w.Name)
		}
	}
}
