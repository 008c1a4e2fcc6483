package cqp

import (
	"context"
	"strings"
	"testing"
)

// TestRequestKey pins both directions of request identity: a knob left at
// its default and the same knob set explicitly give equal keys, and
// flipping any single field that changes the run gives a different key.
// The version-free StaleKey ignores exactly the profile version and the
// statistics generation.
func TestRequestKey(t *testing.T) {
	s := MovieSchema()
	q, err := ParseQuery(s, "SELECT title FROM MOVIE WHERE year >= 1990")
	if err != nil {
		t.Fatal(err)
	}
	q2, err := ParseQuery(s, "SELECT title FROM MOVIE WHERE year >= 1991")
	if err != nil {
		t.Fatal(err)
	}
	qAlt, err := ParseQuery(s, "SELECT title  FROM MOVIE WHERE  year >= 1990")
	if err != nil {
		t.Fatal(err)
	}
	base := Request{
		Mode: ModeExecute, Query: q, ProfileID: "alice", Version: 3,
		Problem: Problem2(400), Limit: 10, Generation: 7,
	}

	with := func(mut func(r *Request), opts ...Option) Request {
		r := base
		r.Opts = opts
		if mut != nil {
			mut(&r)
		}
		return r
	}
	defaulted := with(nil, WithAnyMatch())
	same := map[string]Request{
		"explicit default K":      with(nil, WithAnyMatch(), WithMaxK(20)),
		"explicit default budget": with(nil, WithStateBudget(1<<20), WithAnyMatch()),
		"option order":            with(nil, WithMaxK(20), WithAnyMatch(), WithStateBudget(1<<20)),
		"ignored problem bounds": with(func(r *Request) {
			r.Problem, _ = BuildProblem(2, 400, 5, 9, 0.3)
		}, WithAnyMatch()),
		"query spelling": with(func(r *Request) { r.Query = qAlt }, WithAnyMatch()),
	}
	wantKey := defaulted.Key()
	for name, r := range same {
		if got := r.Key(); got != wantKey {
			t.Errorf("%s: key differs from the defaulted request:\n got %s\nwant %s", name, got, wantKey)
		}
	}

	differ := map[string]func(r *Request){
		"mode personalize": func(r *Request) { r.Mode = ModePersonalize },
		"mode front":       func(r *Request) { r.Mode = ModeFront },
		"mode topk":        func(r *Request) { r.Mode = ModeTopK },
		"query":            func(r *Request) { r.Query = q2 },
		"profile id":       func(r *Request) { r.ProfileID = "bob" },
		"inline profile":   func(r *Request) { r.ProfileID, r.Version, r.ProfileText = "", 0, "doi(MOVIE.year >= 1990) = 0.5" },
		"id/text split":    func(r *Request) { r.ProfileID, r.ProfileText = "alic", "e" },
		"objective":        func(r *Request) { r.Problem = Problem4(0.5) },
		"cost max":         func(r *Request) { r.Problem.CostMax = 401 },
		"doi min":          func(r *Request) { r.Problem.DoiMin = 0.1 },
		"size min":         func(r *Request) { r.Problem.SizeMin = 1 },
		"size max":         func(r *Request) { r.Problem.SizeMax = 100 },
		"algorithm":        func(r *Request) { r.Opts = []Option{WithAlgorithm("D_HeurDoi")} },
		"max k":            func(r *Request) { r.Opts = []Option{WithMaxK(19)} },
		"budget":           func(r *Request) { r.Opts = []Option{WithStateBudget(1000)} },
		"any match":        func(r *Request) { r.Opts = []Option{WithAnyMatch()} },
		"merge":            func(r *Request) { r.Opts = []Option{WithMergedSubQueries()} },
		"limit":            func(r *Request) { r.Limit = 11 },
		"no cache":         func(r *Request) { r.NoCache = true },
		"version":          func(r *Request) { r.Version = 4 },
		"generation":       func(r *Request) { r.Generation = 8 },
	}
	baseKey := base.Key()
	baseStale := StaleKey(baseKey)
	if baseStale == baseKey || !strings.HasPrefix(baseKey, baseStale) {
		t.Fatalf("stale key %q is not a proper prefix of %q", baseStale, baseKey)
	}
	seen := map[string]string{baseKey: "base"}
	for name, mut := range differ {
		r := base
		mut(&r)
		key := r.Key()
		if prev, dup := seen[key]; dup {
			t.Errorf("%s: key equals %s's: %s", name, prev, key)
		}
		seen[key] = name
		versionOnly := name == "version" || name == "generation"
		if got := StaleKey(key) == baseStale; got != versionOnly {
			t.Errorf("%s: stale key equal to base = %v, want %v", name, got, versionOnly)
		}
	}
}

// TestBatchDedupResolvesDefaults: library batch items that differ only in
// spelling out a default option share one run; a real difference does not.
func TestBatchDedupResolvesDefaults(t *testing.T) {
	db := SyntheticMovieDB(300, 1)
	p := NewPersonalizer(db)
	q, err := ParseQuery(db.Schema(), "SELECT title FROM MOVIE")
	if err != nil {
		t.Fatal(err)
	}
	u := SyntheticProfile(10, 2)
	items := []BatchItem{
		{Query: q, Profile: u, Problem: Problem2(10000)},
		{Query: q, Profile: u, Problem: Problem2(10000), Opts: []Option{WithMaxK(20)}},
		{Query: q, Profile: u, Problem: Problem2(10000), Opts: []Option{WithMaxK(5)}},
	}
	out := p.PersonalizeBatch(context.Background(), items, 2)
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
	}
	if !out[1].Duplicate || out[2].Duplicate {
		t.Errorf("duplicate flags = %v %v %v, want false true false",
			out[0].Duplicate, out[1].Duplicate, out[2].Duplicate)
	}
}
