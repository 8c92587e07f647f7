package api

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

var eventTypes = []EventType{
	EventJobAdmitted, EventJobRejected, EventJobStarted, EventJobCompleted,
	EventJobCancelled, EventScheduleChanged, EventScheduleSwapped,
	EventModeChanged, EventClockAdvanced, EventLagged,
}

// stringPieces are the fragments generated strings are built from:
// everything encoding/json escapes, plus near misses that it does not.
var stringPieces = []string{
	"", "a", "lambda1", "mp3_dec", " ", `"`, `\`, "/", "\x00", "\x01", "\b", "\f",
	"\n", "\r", "\t", "\x1f", "\x7f", "<", ">", "&", "\u2028", "\u2029",
	"\u2027", "\u202a", "\u2128", "é", "日本", "😀", `[{"start":1.5,"end":2}]`,
}

// randomFloat draws a float whose magnitude spreads from 1e-9 to 1e22,
// with zero and the spelling cutoffs of encoding/json mixed in.
func randomFloat(rng *rand.Rand) float64 {
	var f float64
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		f = []float64{
			1e-9, 1e-7, 1e-6, math.Nextafter(1e-6, 0), 1e-5, 1e6, 1e20,
			1e21, math.Nextafter(1e21, 0), 1e22, math.SmallestNonzeroFloat64,
			math.MaxFloat64, 0.1, 1.0 / 3,
		}[rng.Intn(14)]
	case 2:
		f = math.Round(math.Pow(10, rng.Float64()*22)) // integral values
	default:
		f = math.Pow(10, -9+rng.Float64()*31)
	}
	if rng.Intn(2) == 0 {
		f = -f
	}
	return f
}

func randomString(rng *rand.Rand) string {
	var b strings.Builder
	for n := rng.Intn(6); n > 0; n-- {
		b.WriteString(stringPieces[rng.Intn(len(stringPieces))])
	}
	return b.String()
}

// TestAppendEventMatchesMarshal is the codec's contract: for finite
// floats and valid UTF-8, AppendEvent writes exactly the bytes
// json.Marshal writes, so either may encode and json.Unmarshal decodes
// both.
func TestAppendEventMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		ev := Event{
			Device:   rng.Intn(5) - 1,
			Type:     eventTypes[rng.Intn(len(eventTypes))],
			At:       randomFloat(rng),
			Deadline: randomFloat(rng),
			App:      randomString(rng),
			Payload:  randomString(rng),
			Missed:   rng.Intn(2) == 0,
		}
		if rng.Intn(4) > 0 {
			ev.Seq = uint64(rng.Int63())
			ev.JobID = rng.Intn(1000)
			ev.Dropped = rng.Intn(3)
		}
		want, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendEvent(nil, ev); !bytes.Equal(got, want) {
			t.Fatalf("event %+v:\nAppendEvent  %s\njson.Marshal %s", ev, got, want)
		}
	}
}

// TestAppendEventAppends: the encoding lands after the existing bytes,
// and a pre-grown buffer makes the call allocation-free.
func TestAppendEventAppends(t *testing.T) {
	ev := Event{Device: 2, Seq: 7, Type: EventJobAdmitted, At: 1.5, JobID: 3, App: "a<b", Deadline: 9}
	want, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	if got := AppendEvent([]byte("data: "), ev); string(got) != "data: "+string(want) {
		t.Fatalf("got %s", got)
	}
	buf := make([]byte, 0, 256)
	if allocs := testing.AllocsPerRun(100, func() { buf = AppendEvent(buf[:0], ev) }); allocs != 0 {
		t.Errorf("AppendEvent allocates %v times per call", allocs)
	}
}

// TestAppendEventNonFinite: json.Marshal refuses NaN and infinities;
// AppendEvent writes null and stays valid JSON.
func TestAppendEventNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		data := AppendEvent(nil, Event{Seq: 1, Type: EventClockAdvanced, At: f})
		if !json.Valid(data) || !bytes.Contains(data, []byte(`"at":null`)) {
			t.Errorf("%v encoded as %s", f, data)
		}
	}
}
