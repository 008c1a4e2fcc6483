package server

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/wire.golden from the current server")

// goldenMasks blank the response fields that legitimately vary run to run
// (timings, trace text, minted request IDs). The masks work on the raw
// body, so field order stays under test.
var goldenMasks = []struct {
	re   *regexp.Regexp
	repl string
}{
	{regexp.MustCompile(`"duration_us":-?[0-9]+`), `"duration_us":"*"`},
	{regexp.MustCompile(`"exec_ms":[-+.eE0-9]+`), `"exec_ms":"*"`},
	{regexp.MustCompile(`"trace":"(?:[^"\\]|\\.)*"`), `"trace":"*"`},
	{regexp.MustCompile(`"request_id":"(?:[^"\\]|\\.)*"`), `"request_id":"*"`},
	{regexp.MustCompile(`"attribution_us":\{[^}]*\}`), `"attribution_us":"*"`},
}

// TestWireGolden pins the wire format of the pipeline endpoints: one
// fixed-seed daemon answers a fixed sequence of /personalize, /execute,
// /front, /topk and /personalize/batch requests (stored and inline
// profiles, no_cache, warm repeats, an execute limit, a batch with
// duplicates, a per-item error and execute mode, and request-level
// errors), and every status and masked body must match
// testdata/wire.golden byte for byte. Run with -update to rewrite it.
func TestWireGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putProfile(t, ts.URL, "alice", testProfileText())
	inline := testProfileText()
	const q2 = "SELECT title FROM MOVIE WHERE year >= 1990"
	p2 := map[string]any{"number": 2, "cmax_ms": 10000}

	cases := []struct {
		name, path string
		body       map[string]any
	}{
		{"personalize/stored/cold", "/personalize",
			map[string]any{"sql": testSQL, "profile_id": "alice", "problem": p2}},
		{"personalize/stored/warm", "/personalize",
			map[string]any{"sql": testSQL, "profile_id": "alice", "problem": p2}},
		{"personalize/stored/warm-trace", "/personalize?trace=1",
			map[string]any{"sql": testSQL, "profile_id": "alice", "problem": p2}},
		{"personalize/stored/cold-trace", "/personalize",
			map[string]any{"sql": q2, "profile_id": "alice", "problem": p2, "trace": true}},
		{"personalize/stored/no-cache", "/personalize",
			map[string]any{"sql": testSQL, "profile_id": "alice", "problem": p2, "no_cache": true}},
		{"personalize/stored/problem1", "/personalize",
			map[string]any{"sql": testSQL, "profile_id": "alice", "k": 8,
				"problem": map[string]any{"number": 1, "smin": 1, "smax": 200}}},
		{"personalize/inline", "/personalize",
			map[string]any{"sql": testSQL, "profile": inline, "problem": p2}},
		{"personalize/inline/repeat", "/personalize",
			map[string]any{"sql": testSQL, "profile": inline, "problem": p2}},
		{"personalize/unknown-profile", "/personalize",
			map[string]any{"sql": testSQL, "profile_id": "ghost"}},
		{"personalize/both-profiles", "/personalize",
			map[string]any{"sql": testSQL, "profile_id": "alice", "profile": inline}},
		{"personalize/bad-sql", "/personalize",
			map[string]any{"sql": "SELECT nope FROM NOWHERE", "profile_id": "alice"}},
		{"personalize/bad-problem", "/personalize",
			map[string]any{"sql": testSQL, "profile_id": "alice", "problem": map[string]any{"number": 9}}},
		{"personalize/unknown-field", "/personalize",
			map[string]any{"sql": testSQL, "profile_id": "alice", "bogus": 1}},

		{"execute/stored/limit", "/execute",
			map[string]any{"sql": testSQL, "profile_id": "alice", "problem": p2, "any_match": true, "limit": 3}},
		{"execute/stored/limit/warm", "/execute",
			map[string]any{"sql": testSQL, "profile_id": "alice", "problem": p2, "any_match": true, "limit": 3}},
		{"execute/stored/default-limit", "/execute",
			map[string]any{"sql": q2, "profile_id": "alice", "problem": p2, "any_match": true, "no_cache": true}},
		{"execute/inline", "/execute",
			map[string]any{"sql": testSQL, "profile": inline, "problem": p2, "any_match": true, "limit": 2}},
		{"execute/unknown-field", "/execute",
			map[string]any{"sql": testSQL, "profile_id": "alice", "rows": 3}},

		{"front/stored", "/front",
			map[string]any{"sql": testSQL, "profile_id": "alice", "max_points": 6, "k": 8}},
		{"front/stored/warm", "/front",
			map[string]any{"sql": testSQL, "profile_id": "alice", "max_points": 6, "k": 8}},
		{"front/stored/cmax-budget", "/front",
			map[string]any{"sql": testSQL, "profile_id": "alice", "cmax_ms": 5000, "budget": 1, "no_cache": true}},
		{"front/inline", "/front",
			map[string]any{"sql": q2, "profile": inline, "max_points": 4, "k": 6}},
		{"front/unknown-field", "/front",
			map[string]any{"sql": testSQL, "profile_id": "alice", "problem": p2}},

		{"topk/stored", "/topk",
			map[string]any{"sql": testSQL, "profile_id": "alice", "cmax_ms": 10000, "k": 4}},
		{"topk/stored/warm", "/topk",
			map[string]any{"sql": testSQL, "profile_id": "alice", "cmax_ms": 10000, "k": 4}},
		{"topk/stored/defaults", "/topk",
			map[string]any{"sql": q2, "profile_id": "alice", "max_k": 6}},
		{"topk/inline", "/topk",
			map[string]any{"sql": testSQL, "profile": inline, "cmax_ms": 10000, "k": 3, "no_cache": true}},
		{"topk/unknown-field", "/topk",
			map[string]any{"sql": testSQL, "profile_id": "alice", "limit": 3}},

		{"batch/personalize", "/personalize/batch", map[string]any{"items": []map[string]any{
			{"sql": testSQL, "profile_id": "alice", "problem": p2}, // cached by an earlier singleton
			{"sql": "SELECT title FROM MOVIE WHERE year >= 1995", "profile_id": "alice", "problem": p2},
			{"sql": testSQL, "profile_id": "alice", "problem": p2},                   // duplicate of 0
			{"sql": "SELECT nope FROM NOWHERE", "profile_id": "alice"},               // parse error
			{"sql": q2, "profile": inline, "problem": p2},                            // inline
			{"sql": q2, "profile": inline, "problem": p2},                            // inline duplicate
			{"sql": testSQL, "profile_id": "ghost"},                                  // unknown profile
			{"sql": testSQL, "profile_id": "alice", "problem": p2, "no_cache": true}, // not a duplicate of 0
		}}},
		{"batch/execute", "/personalize/batch", map[string]any{"execute": true, "limit": 2, "items": []map[string]any{
			{"sql": testSQL, "profile_id": "alice", "problem": p2, "any_match": true},
			{"sql": "SELECT title FROM MOVIE WHERE year >= 1995", "profile_id": "alice", "problem": p2, "any_match": true},
			{"sql": testSQL, "profile_id": "alice", "problem": p2, "any_match": true},
			{"sql": testSQL, "profile": inline, "problem": p2, "any_match": true},
		}}},
		{"batch/unknown-field", "/personalize/batch", map[string]any{"items": []map[string]any{
			{"sql": testSQL, "profile_id": "alice", "problem": p2},
		}, "trace": true}},
		{"batch/item-unknown-field", "/personalize/batch", map[string]any{"items": []map[string]any{
			{"sql": testSQL, "profile_id": "alice", "cmax_ms": 10},
		}}},
	}

	var got bytes.Buffer
	for _, c := range cases {
		resp, body := doJSON(t, http.MethodPost, ts.URL+c.path, c.body)
		for _, m := range goldenMasks {
			body = m.re.ReplaceAll(body, []byte(m.repl))
		}
		fmt.Fprintf(&got, "=== %s %s %d\n%s", c.name, c.path, resp.StatusCode, body)
	}

	path := filepath.Join("testdata", "wire.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("wire output differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}
