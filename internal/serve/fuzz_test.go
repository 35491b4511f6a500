package serve

import (
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"harmonia"
)

// FuzzCreateRun sends arbitrary bodies to POST /v1/runs and POST
// /v1/batch, the service's two untrusted JSON parsers. Whatever the
// body, the handler must answer with a status the API documents — 200
// or 202 for an accepted run or batch, 400 for a bad request, 422 for a
// run that failed, 503 when shedding — and every non-2xx response must
// be the {"error": "..."} envelope.
//
// Each input waits for the runs it admitted to finish, so the admission
// queue starts empty every time and a valid body is never shed for
// queue depth.
func FuzzCreateRun(f *testing.F) {
	for _, seed := range []struct {
		batch bool
		body  string
	}{
		{false, `{"app":"SRAD","policy":"harmonia"}`},
		{false, `{"app":"SRAD","policy":"baseline","wait":false}`},
		{false, `{"app":"LUD","policy":"oracle"}`},
		{false, `{"app":"Graph500","policy":"fixed","config":"16/700/925"}`},
		{false, `{"app":"Graph500","policy":"fixed","config":"9999/1/1"}`},
		{false, `{"app":"Graph500","policy":"powertune","tdp_watts":150}`},
		{false, `{"app":"Sort","policy":"harmonia","fault_seed":3,"fault_intensity":0.5}`},
		{false, `{"app":"Graph500","policy":"harmonia","fault_intensity":2}`},
		{false, `{"app":"Graph500","policy":"harmonia","surprise":1}`},
		{false, `{"app":"NoSuchApp","policy":"harmonia"}`},
		{false, `{"app":`},
		{true, `{"apps":["SRAD","LUD"],"policies":["baseline","fixed"],"config":"16/700/925"}`},
		{true, `{"apps":["SRAD"],"policies":["baseline"],"wait":false}`},
		{true, `{"apps":["SRAD"],"policies":["baseline","warp-drive"]}`},
		{true, `{"apps":["SRAD"],"policies":["baseline"],"fault_intensity":2}`},
		{true, `{"apps":[],"policies":["baseline"]}`},
		{true, `{"app":"SRAD","policy":"baseline"}`},
	} {
		f.Add(seed.batch, seed.body)
	}
	srv := New(harmonia.NewSystem(harmonia.WithSimCache()), Options{
		Workers: 1, MaxRuns: 64, Logger: log.New(io.Discard, "", 0),
	})
	f.Cleanup(srv.Close)
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, batch bool, body string) {
		path := "/v1/runs"
		if batch {
			path = "/v1/batch"
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		srv.runsWG.Wait()
		switch rec.Code {
		case http.StatusOK, http.StatusAccepted:
			return
		case http.StatusBadRequest, http.StatusUnprocessableEntity, http.StatusServiceUnavailable:
		default:
			t.Fatalf("POST %s %q = %d: %s", path, body, rec.Code, rec.Body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Fatalf("POST %s %q = %d with a body that is not an error envelope: %s", path, body, rec.Code, rec.Body)
		}
	})
}
