package service

import (
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// TestServedDrawFlavorsBitIdentical: every served draw flavor — plain,
// traced, and streamed (diagnosed) — runs the one compiled draw, so for
// both model families and every in-chain runtime each flavor returns the
// plain draw's sample and round count at the same seed.
func TestServedDrawFlavorsBitIdentical(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, model := range []struct{ name, spec string }{
		{"coloring", coloringSpec},
		{"domset", cspSpec},
	} {
		var reg RegisterResponse
		if code, body := postJSON(t, ts.URL+"/v1/models", model.spec, &reg); code != http.StatusCreated {
			t.Fatalf("%s: register: code %d body %s", model.name, code, body)
		}
		url := ts.URL + "/v1/models/" + reg.ID + "/sample"
		for _, runtime := range []struct{ name, opts string }{
			{"centralized", ""},
			{"shards2", `,"shards":2`},
			{"parallel2", `,"parallel":2`},
		} {
			t.Run(model.name+"/"+runtime.name, func(t *testing.T) {
				req := `{"seed":77` + runtime.opts
				var plain, traced SampleResponse
				if code, body := postJSON(t, url, req+`}`, &plain); code != http.StatusOK {
					t.Fatalf("plain: code %d body %s", code, body)
				}
				if code, body := postJSON(t, url, req+`,"trace":true}`, &traced); code != http.StatusOK {
					t.Fatalf("traced: code %d body %s", code, body)
				}
				if traced.TraceID == "" {
					t.Fatal("traced draw returned no trace ID")
				}
				streamed := streamDraw(t, url+"/stream", req+`,"every":1000}`)
				if streamed.Diagnosis == nil {
					t.Fatal("streamed draw carries no diagnosis")
				}
				for flavor, got := range map[string]SampleResponse{"traced": traced, "streamed": streamed.SampleResponse} {
					if got.Rounds != plain.Rounds {
						t.Fatalf("%s draw ran %d rounds, plain draw %d", flavor, got.Rounds, plain.Rounds)
					}
					if !reflect.DeepEqual(got.Samples, plain.Samples) {
						t.Fatalf("%s draw diverged from the plain draw at the same seed", flavor)
					}
				}
			})
		}
	}
}

// streamDraw posts a streaming draw and returns its final draw event.
func streamDraw(t *testing.T, url, body string) StreamDrawEvent {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: code %d body %s", resp.StatusCode, raw)
	}
	for _, ev := range parseSSE(t, string(raw)) {
		if ev.event == "draw" {
			var de StreamDrawEvent
			if err := json.Unmarshal([]byte(ev.data), &de); err != nil {
				t.Fatalf("draw event %q: %v", ev.data, err)
			}
			return de
		}
	}
	t.Fatalf("stream carried no draw event:\n%s", raw)
	return StreamDrawEvent{}
}
