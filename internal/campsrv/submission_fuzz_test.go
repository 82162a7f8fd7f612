package campsrv_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/campaignd"
	"repro/internal/campsrv"
)

// FuzzSubmission posts arbitrary bodies to POST /campaigns on a fresh
// server. The handler must answer 201 or 400 and never panic, and an
// accepted campaign's stored spec must re-serialise to the same bytes.
func FuzzSubmission(f *testing.F) {
	valid, err := json.Marshal(campsrv.Submission{Spec: testSpec(2, 11), Priority: 2, MaxInflight: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"spec":{"target":"bench","trials":1,"baseSeed":-7,"maxPerTrialNanos":1,` +
		`"guidedSeed":["215#20"],"config":{"seed":3,"mode":"guided","idMin":533}}}`))
	f.Add([]byte(`{"spec":{"target":"bench","trials":100001,"maxPerTrialNanos":1}}`))
	f.Add([]byte(`{"spec":{"target":"bench","trials":1,"maxPerTrialNanos":1},"priority":-1}`))
	f.Add([]byte(`{"spec":{"target":"","trials":1}}`))
	f.Add([]byte(`{"spec":null}`))
	f.Add([]byte(`not json`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		s := newServer(t, campsrv.Config{})
		defer s.Close()
		h := s.Handler(campsrv.HandlerConfig{})

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/campaigns", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest:
			return
		case http.StatusCreated:
		default:
			t.Fatalf("submission %q: status %d: %s", body, rec.Code, rec.Body)
		}
		var v campsrv.CampaignView
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatalf("submission %q: 201 body: %v", body, err)
		}

		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/campaignd/spec?campaign="+v.ID, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("submission %q: spec of accepted campaign: status %d", body, rec.Code)
		}
		stored := rec.Body.Bytes()
		var spec campaignd.CampaignSpec
		if err := json.Unmarshal(stored, &spec); err != nil {
			t.Fatalf("submission %q: stored spec %s does not decode: %v", body, stored, err)
		}
		again, err := spec.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stored, again) {
			t.Fatalf("submission %q: spec does not re-serialise stably:\n%s\n%s", body, stored, again)
		}
	})
}
