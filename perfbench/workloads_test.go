package main

import (
	"testing"

	"adaptrm/internal/dse"
	"adaptrm/internal/platform"
)

// The traced and the untraced path of one seed must reach identical
// verdicts, job ids, energy and ledger: tracing only observes.

func TestFleetDurableTracedEqualsUntraced(t *testing.T) {
	plat := platform.OdroidXU4()
	lib, err := dse.StandardLibrary(plat)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := genArrivals(lib, traceSpec{
		devices: fdDevices, rate: fdRate, burstRate: fdBurstRate, burstSize: fdBurstSize, horizon: fdHorizon / 50, seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	work := splitCallers(arr, fdCallers)
	cfg := config{scratch: t.TempDir()}
	plain, err := fleetDurableRound(cfg, plat, work, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	traced, err := fleetDurableRound(cfg, plat, work, 1, rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*fdRound{plain, traced} {
		if len(r.failures) > 0 {
			t.Errorf("checks failed: %v", r.failures)
		}
	}
	if plain.tally != traced.tally || plain.outcome != traced.outcome {
		t.Errorf("outcomes differ: untraced %+v %x, traced %+v %x", plain.tally, plain.outcome, traced.tally, traced.outcome)
	}
	if ledgerOf(plain.final) != ledgerOf(traced.final) {
		t.Errorf("ledgers differ: untraced %+v, traced %+v", ledgerOf(plain.final), ledgerOf(traced.final))
	}
	if plain.stats.CoalescedRequests == 0 || plain.tally.rejected == 0 || plain.tally.cancelled == 0 {
		t.Errorf("trace too easy: %+v, %d coalesced", plain.tally, plain.stats.CoalescedRequests)
	}
	if len(ofLayer(traced.spans, layerService)) == 0 || len(ofLayer(traced.spans, layerCore)) == 0 {
		t.Error("the traced round recorded no service or solver spans")
	}
}

func TestHTTPRoutedTracedEqualsUntraced(t *testing.T) {
	plat := platform.OdroidXU4()
	lib, err := dse.StandardLibrary(plat)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := newHRTrace(lib, 7, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	tr.openRate = 100 // slow enough for the race detector
	plain, err := httpRoutedRound(plat, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	traced, err := httpRoutedRound(plat, tr, rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*hrRound{plain, traced} {
		if len(r.failures) > 0 {
			t.Errorf("checks failed: %v", r.failures)
		}
	}
	if plain.tally != traced.tally || plain.outcome != traced.outcome {
		t.Errorf("outcomes differ: untraced %+v %x, traced %+v %x", plain.tally, plain.outcome, traced.tally, traced.outcome)
	}
	if ledgerOf(plain.final) != ledgerOf(traced.final) {
		t.Errorf("ledgers differ: untraced %+v, traced %+v", ledgerOf(plain.final), ledgerOf(traced.final))
	}
	for _, l := range []layer{layerLoadgen, layerClient, layerEdge, layerBackend, layerService, layerCore} {
		if len(ofLayer(traced.spans, l)) == 0 {
			t.Errorf("the traced round recorded no spans at layer %d", l)
		}
	}
	if traced.bytes == 0 {
		t.Error("the traced round counted no transport bytes")
	}
}

func TestPaperSuiteTracedEqualsUntraced(t *testing.T) {
	plat := platform.OdroidXU4()
	cfg := config{seed: 7, scale: 0.05}
	plain, err := paperSuiteRound(cfg, plat, nil)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := paperSuiteRound(cfg, plat, newRecorder())
	if err != nil {
		t.Fatal(err)
	}
	if plain.outcome != traced.outcome {
		t.Errorf("outcomes differ: untraced %x, traced %x", plain.outcome, traced.outcome)
	}
	if n := plain.res.InvalidCount(); n != 0 {
		t.Errorf("%d invalid schedules", n)
	}
	res := &result{values: map[string]float64{}}
	paperQuality(res, plain.res)
	if len(res.failures) > 0 {
		t.Errorf("checks failed: %v", res.failures)
	}
	for _, l := range []layer{layerCore, layerLagrange, layerExmem} {
		if len(ofLayer(traced.spans, l)) == 0 {
			t.Errorf("the traced round recorded no spans at layer %d", l)
		}
	}
}
