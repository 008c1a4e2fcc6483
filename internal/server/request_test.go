package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cqp"
)

// wireKey decodes body the way endpoint mode does and returns the request
// value's key.
func wireKey(t *testing.T, s *Server, mode cqp.Mode, body map[string]any) string {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(b))
	req, err := s.decodeRequest(httptest.NewRecorder(), r, mode)
	if err != nil {
		t.Fatalf("%s %v: %v", mode, body, err)
	}
	return req.key
}

// TestWireRequestKey: every endpoint's knobs resolve to their defaults
// before they reach the key — {"k":0} and {"k":20} are one request — and
// every knob that changes the pipeline (no_cache, mode and limit included)
// changes the key.
func TestWireRequestKey(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	putProfile(t, ts.URL, "alice", testProfileText())
	body := func(kv ...any) map[string]any {
		m := map[string]any{"sql": testSQL, "profile_id": "alice"}
		for i := 0; i < len(kv); i += 2 {
			m[kv[i].(string)] = kv[i+1]
		}
		return m
	}
	p, e, f, k := cqp.ModePersonalize, cqp.ModeExecute, cqp.ModeFront, cqp.ModeTopK
	cases := []struct {
		name   string
		ma, mb cqp.Mode
		a, b   map[string]any
		equal  bool
	}{
		{"default k", p, p, body(), body("k", 20), true},
		{"default budget", p, p, body(), body("budget", 1<<20), true},
		{"default problem", p, p, body(), body("problem", map[string]any{"number": 2, "cmax_ms": 400}), true},
		{"ignored bounds", p, p, body("problem", map[string]any{"number": 2, "cmax_ms": 9}),
			body("problem", map[string]any{"number": 2, "cmax_ms": 9, "smax": 3}), true},
		{"timeout and trace", p, p, body(), body("timeout_ms", 5, "trace", true), true},
		{"limit ignored by personalize", p, p, body(), body("limit", 5), true},
		{"default limit", e, e, body(), body("limit", 100), true},
		{"front defaults", f, f, body(), body("k", 20, "budget", 1<<20), true},
		{"topk default max_k", k, k, body(), body("max_k", 20), true},
		{"topk default k and cmax", k, k, body(), body("k", 10, "cmax_ms", 400), true},

		{"no_cache", p, p, body(), body("no_cache", true), false},
		{"mode", p, e, body(), body(), false},
		{"limit", e, e, body("limit", 3), body("limit", 4), false},
		{"k", p, p, body("k", 5), body("k", 6), false},
		{"budget", p, p, body("budget", 5), body("budget", 6), false},
		{"algorithm", p, p, body(), body("algorithm", "D_HeurDoi"), false},
		{"any_match", p, p, body(), body("any_match", true), false},
		{"merge", p, p, body(), body("merge", true), false},
		{"problem", p, p, body(), body("problem", map[string]any{"number": 2, "cmax_ms": 401}), false},
		{"profile", p, p, body(), map[string]any{"sql": testSQL, "profile": testProfileText()}, false},
		{"query", p, p, body(), body("sql", "SELECT title FROM MOVIE WHERE year >= 1990"), false},
		{"front cmax", f, f, body(), body("cmax_ms", 300), false},
		{"front smin", f, f, body(), body("smin", 2), false},
		{"front max_points", f, f, body(), body("max_points", 3), false},
		{"topk k", k, k, body("k", 3), body("k", 4), false},
		{"topk cmax", k, k, body(), body("cmax_ms", 300), false},
		{"front vs topk", f, k, body(), body(), false},
	}
	for _, c := range cases {
		ka, kb := wireKey(t, s, c.ma, c.a), wireKey(t, s, c.mb, c.b)
		if (ka == kb) != c.equal {
			t.Errorf("%s: keys equal = %v, want %v\n a: %s\n b: %s", c.name, ka == kb, c.equal, ka, kb)
		}
	}
}

// TestDefaultedKnobsShareCacheEntry: a request that spells out a default
// knob is answered from the entry its defaulted twin filled.
func TestDefaultedKnobsShareCacheEntry(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putProfile(t, ts.URL, "alice", testProfileText())
	pairs := []struct {
		path string
		a, b map[string]any
	}{
		{"/personalize",
			map[string]any{"sql": testSQL, "profile_id": "alice", "k": 0},
			map[string]any{"sql": testSQL, "profile_id": "alice", "k": 20, "budget": 1 << 20}},
		{"/topk",
			map[string]any{"sql": testSQL, "profile_id": "alice", "max_k": 0},
			map[string]any{"sql": testSQL, "profile_id": "alice", "max_k": 20, "k": 10, "cmax_ms": 400}},
	}
	for _, p := range pairs {
		for i, body := range []map[string]any{p.a, p.b} {
			resp, raw := doJSON(t, http.MethodPost, ts.URL+p.path, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: %d: %s", p.path, resp.StatusCode, raw)
			}
			var tail responseTail
			if err := json.Unmarshal(raw, &tail); err != nil {
				t.Fatal(err)
			}
			if tail.Cached != (i == 1) {
				t.Errorf("%s request %d: cached = %v, want %v", p.path, i, tail.Cached, i == 1)
			}
		}
	}
}

// TestBatchRoleDeterministic: a batch's flight-record role is decided once
// from its units' outcomes, not by whichever concurrent unit wrote last. A
// mixed batch (an inline profile always runs solo, stored profiles lead
// cold and hit warm) is "solo" every time; an all-stored warm batch is a
// "hit".
func TestBatchRoleDeterministic(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	putProfile(t, ts.URL, "alice", testProfileText())
	role := func(id string, items ...map[string]any) string {
		t.Helper()
		b, err := json.Marshal(batchBody(items...))
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/personalize/batch", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-ID", id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %s: %d", id, resp.StatusCode)
		}
		// The record is sealed after the body goes out; wait for it.
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if snap, _, ok := s.flight.Get(id); ok {
				return snap.Role
			}
		}
		t.Fatalf("batch %s never reached the flight recorder", id)
		return ""
	}
	inline := map[string]any{"sql": testSQL, "profile": testProfileText(),
		"problem": map[string]any{"number": 2, "cmax_ms": 10000}}
	stored := []map[string]any{
		batchItem("alice", testSQL),
		batchItem("alice", "SELECT title FROM MOVIE WHERE year >= 1990"),
		batchItem("alice", "SELECT title FROM MOVIE WHERE year >= 1995"),
	}
	for i := 0; i < 12; i++ {
		if got := role("mixed-"+string(rune('a'+i)), append([]map[string]any{inline}, stored...)...); got != "solo" {
			t.Fatalf("mixed batch run %d: role %q, want solo", i, got)
		}
	}
	if got := role("warm", stored...); got != "hit" {
		t.Errorf("warm all-stored batch: role %q, want hit", got)
	}
}
