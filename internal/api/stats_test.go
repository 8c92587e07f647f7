package api

import (
	"reflect"
	"testing"
)

// TestStatsSchemaComplete fails when a StatsResult field has no schema
// row or more than one, so a new statistic cannot skip its class,
// merge rule and /metrics decision.
func TestStatsSchemaComplete(t *testing.T) {
	rows := map[string]int{}
	for _, f := range StatsSchema {
		rows[f.Field]++
	}
	typ := reflect.TypeOf(StatsResult{})
	for i := 0; i < typ.NumField(); i++ {
		sf := typ.Field(i)
		if !sf.IsExported() {
			continue
		}
		if n := rows[sf.Name]; n != 1 {
			t.Errorf("StatsResult.%s has %d schema rows, want exactly 1", sf.Name, n)
		}
	}
	if len(StatsSchema) != typ.NumField() {
		t.Errorf("schema has %d rows for %d fields", len(StatsSchema), typ.NumField())
	}
	for _, f := range StatsSchema {
		if (f.Metric == "") != (f.Kind == "") || (f.Metric == "") != (f.Help == "") {
			t.Errorf("%s: metric %q, kind %q and help %q must be set together", f.Field, f.Metric, f.Kind, f.Help)
		}
		if f.PerDevice && f.Metric == "" {
			t.Errorf("%s: per-device samples without a metric family", f.Field)
		}
	}
}
