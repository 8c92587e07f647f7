package httpapi_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"adaptrm/internal/api"
	"adaptrm/internal/fleet"
	"adaptrm/internal/httpapi"
)

// fuzzRoutes are the mutating routes whose bodies come off the network.
var fuzzRoutes = []string{"/v1/submit", "/v1/submit-batch", "/v1/advance", "/v1/cancel"}

// FuzzServerRequest feeds arbitrary bytes as the body of every mutating
// route of a server over a small fleet, through Server.ServeHTTP with
// no sockets. The tenant carries a device list, a budget and a frozen
// rate bucket, so the authorisation and quota paths run too. Whatever
// the body, the server must not panic, every reply must be JSON, and a
// non-200 reply must be an error envelope whose status is the one its
// taxonomy code maps to.
func FuzzServerRequest(f *testing.F) {
	for _, seed := range []string{
		`{"device":0,"at":0,"app":"lambda1","deadline":9}`,
		`{"device":1,"at":0,"items":[{"app":"lambda1","deadline":9},{"app":"lambda2","deadline":9}]}`,
		`{"device":0,"to":5}`,
		`{"device":0,"job_id":1}`,
		`{"device":-1,"at":0,"items":[]}`,
		`{"device":7,"at":1e300,"app":"nope","deadline":-1}`,
		`{"device":0,"bogus":true}`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	frozen := time.Unix(1000, 0)
	f.Fuzz(func(t *testing.T, body []byte) {
		fl := newFleet(t, 2, fleet.Options{})
		defer fl.Close()
		s := mustServer(t, fl.Service(), httpapi.ServerOptions{
			Now: func() time.Time { return frozen },
			Tenants: []httpapi.Tenant{{
				Name: "t", Token: "tok", Devices: []int{0, 1}, MaxRequests: 6, Rate: 1, Burst: 4,
			}},
		})
		for _, route := range fuzzRoutes {
			req := httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body))
			req.Header.Set("Authorization", "Bearer tok")
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("%s: Content-Type %q, want application/json", route, ct)
			}
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("%s: status %d, reply is not JSON: %q", route, rec.Code, rec.Body.Bytes())
			}
			if rec.Code == http.StatusOK {
				continue
			}
			var env struct {
				Error *api.Error `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil {
				t.Fatalf("%s: status %d without an error envelope: %q", route, rec.Code, rec.Body.Bytes())
			}
			if want := httpapi.StatusOf(env.Error.Code); rec.Code != want {
				t.Fatalf("%s: status %d for code %q, want %d", route, rec.Code, env.Error.Code, want)
			}
		}
	})
}
