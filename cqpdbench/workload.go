package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"cqp/internal/workload"
)

// Endpoint names, as cqpd's instrument wrapper labels them.
const (
	epPersonalize = "personalize"
	epFront       = "front"
	epTopK        = "topk"
	epExecute     = "execute"
	epBatch       = "batch"
	epProfilePut  = "profile_put"
)

// endpoints lists every endpoint the benchmark drives, in report order.
var endpoints = []string{epPersonalize, epFront, epTopK, epExecute, epBatch, epProfilePut}

// share is one entry of a workload's endpoint mix: the endpoint and its
// fraction of the request stream.
type share struct {
	Endpoint string
	Frac     float64
}

// spec fixes one workload: the generated inputs cqpd receives, the request
// mix, and the open-loop rate. Every field is part of the benchmark's
// definition; changing one changes what the numbers mean.
type spec struct {
	Name string
	// Purpose says which layer the workload loads and how; why() adds the
	// sizes, rate and mix for BENCHMARK.json.
	Purpose string

	Movies   int // synthetic database size
	Profiles int // stored profiles
	SelPrefs int // selection preferences per profile
	Queries  int // distinct base queries
	// ProfileZipf skews which profile a request names, reads and writes
	// alike, so writes land on the hot set the reads cache; QueryZipf
	// skews which base query a read names (0 = uniform).
	ProfileZipf float64
	QueryZipf   float64
	Mix         []share
	// Problems are the /personalize problem variants and their weights.
	Problems []variant
	// Budget is the per-request search state budget every pipeline request
	// carries (0 = the daemon's default).
	Budget int
	// RateRPS is the open-loop arrival rate: a quarter to a third of the
	// closed-loop capacity measured on a 2-vCPU host, and at least
	// minOpenSamples over the open loop of a run_seconds run. Nearer half,
	// two slow requests holding both connections set p99, and p99 moved by
	// more than a quarter between runs.
	RateRPS float64
	// Warmup is the number of requests sent before timing.
	Warmup int
	// Fsync, when set, runs cqpd with a durable profile store (-data) under
	// this WAL fsync policy.
	Fsync string
	// BatchItems sizes execute-mode /personalize/batch requests.
	BatchItems int
	// ReplayRequests is how many stream requests the traced replay runs.
	ReplayRequests int
}

var specs = []spec{
	{
		Name:    "search-bound",
		Purpose: "loads prefspace+core (K=20), nothing executes, keys far outnumber the 1024-entry cache",
		Movies:  4000, Profiles: 2000, SelPrefs: 60, Queries: 120,
		Mix:            []share{{epPersonalize, 0.70}, {epFront, 0.30}},
		Problems:       searchProblems,
		Budget:         20000,
		RateRPS:        90,
		Warmup:         40,
		ReplayRequests: 120,
	},
	{
		Name:    "exec-bound",
		Purpose: "loads exec, search under 1ms; batch = 8 execute-mode items under ScanShare",
		Movies:  5000, Profiles: 1000, SelPrefs: 10, Queries: 120,
		Mix:            []share{{epExecute, 0.58}, {epTopK, 0.38}, {epBatch, 0.04}},
		RateRPS:        42,
		Warmup:         60,
		BatchItems:     8,
		ReplayRequests: 80,
	},
	{
		Name:    "hot-readwrite",
		Purpose: "loads cache, profilestore+wal (fsync interval), prefs; Zipf hot set fits cache, no execution",
		Movies:  4000, Profiles: 2000, SelPrefs: 24, Queries: 4,
		ProfileZipf: 1.3, QueryZipf: 2.0,
		Mix:            []share{{epPersonalize, 0.60}, {epFront, 0.30}, {epProfilePut, 0.10}},
		Problems:       []variant{{1, problemBody{Number: 2, CmaxMS: 400}}},
		Budget:         2000,
		RateRPS:        600,
		Warmup:         600,
		Fsync:          "interval",
		ReplayRequests: 600,
	},
}

// why is the workload's one-line rationale as BENCHMARK.json records it:
// its purpose, sizes, open-loop rate and endpoint shares.
func (s spec) why() string {
	mix := make([]string, len(s.Mix))
	for i, sh := range s.Mix {
		name := sh.Endpoint
		if name == epProfilePut {
			name = "PUT"
		}
		mix[i] = fmt.Sprintf("%s %.0f%%", name, 100*sh.Frac)
	}
	return fmt.Sprintf("%s; %d movies, %d profiles x %d prefs, %d queries; open %g rps; %s",
		s.Purpose, s.Movies, s.Profiles, s.SelPrefs, s.Queries, s.RateRPS, strings.Join(mix, ", "))
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return spec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// rng is a splitmix64 generator. Every request is drawn from its own rng,
// seeded from (seed, stream, index), so request i is the same whatever
// else was generated before it.
type rng struct{ s uint64 }

func mix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func newRNG(seed int64, stream, i uint64) *rng {
	return &rng{s: mix64(uint64(seed)) ^ mix64(stream<<40^i)}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	return mix64(r.s)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf samples ranks 0..n-1 with P(r) ∝ 1/(r+1)^s; s = 0 is uniform.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for r := 0; r < n; r++ {
		sum += 1 / math.Pow(float64(r+1), s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return zipf{cdf: cdf}
}

func (z zipf) draw(r *rng) int { return z.at(r.float()) }

// at maps a uniform u in [0, 1) to its rank.
func (z zipf) at(u float64) int {
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// dataSeed fixes the catalog every run serves — the movie database and the
// base queries — and the warm-up stream, so that --seed draws the users
// (profile texts) and their measured traffic. A database and query set
// drawn per seed moved cost per request by more than the bounds allow
// between seeds: with a dozen hot queries, whether the hottest joins GENRE
// decides a run's miss cost.
const dataSeed = 1

// Stream identifiers keep the measured stream, the warm-up stream and
// profile rewrites independent.
const (
	streamRequests = 1
	streamWarmup   = 2
	streamRewrite  = 3
)

// request is one generated HTTP request plus what the benchmark needs to
// check its answer.
type request struct {
	Index    int
	Endpoint string
	Method   string
	Path     string
	Body     []byte
	// Profile is the profile index the request names (the written one for
	// a PUT); Query the base-query index (-1 for a PUT).
	Profile int
	Query   int
	// Desc is the request's identity for reference lookups: endpoint plus
	// every parameter that shapes the answer.
	Desc string
	// Items holds the per-item bodies of a batch request.
	Items []pipelineBody
}

// problemBody and pipelineBody mirror cqpd's request JSON.
type problemBody struct {
	Number int     `json:"number"`
	CmaxMS float64 `json:"cmax_ms,omitempty"`
	Smin   float64 `json:"smin,omitempty"`
	Smax   float64 `json:"smax,omitempty"`
}

type pipelineBody struct {
	SQL       string       `json:"sql"`
	ProfileID string       `json:"profile_id"`
	Problem   *problemBody `json:"problem,omitempty"`
	Budget    int          `json:"budget,omitempty"`
	Limit     int          `json:"limit,omitempty"`
	// front and topk fields
	CmaxMS    float64 `json:"cmax_ms,omitempty"`
	MaxPoints int     `json:"max_points,omitempty"`
	K         int     `json:"k,omitempty"`
}

type batchBody struct {
	Items   []pipelineBody `json:"items"`
	Execute bool           `json:"execute"`
	Limit   int            `json:"limit"`
}

// variant is one weighted /personalize problem.
type variant struct {
	weight float64
	prob   problemBody
}

// searchProblems are the Table-1 problems search-bound asks /personalize
// for: Problem 2 at two cost bounds, Problem 1 at two size windows and
// Problem 3 combining both. Every base query fits each bound on its own
// (4000-movie base queries estimate 28–54 ms and at least 140 rows), so no
// request is refused as infeasible; and the windows keep the slowest
// searches within tens of milliseconds — Problem 1 windows reaching down
// to one row cost up to 250 ms a search, which made p99 unsteady.
var searchProblems = []variant{
	{0.30, problemBody{Number: 2, CmaxMS: 300}},
	{0.30, problemBody{Number: 2, CmaxMS: 600}},
	{0.15, problemBody{Number: 1, Smin: 50, Smax: 50000}},
	{0.15, problemBody{Number: 1, Smin: 100, Smax: 1e9}},
	{0.10, problemBody{Number: 3, CmaxMS: 150, Smin: 1, Smax: 1e9}},
}

const (
	execLimit   = 20  // /execute and batch row cap
	execCmaxMS  = 150 // cost bound of executed requests
	topK        = 10  // answers per /topk
	topKCmaxMS  = 150
	frontCmaxMS = 600
	frontPoints = 8
)

// generator derives every input of one workload run from the seed.
type generator struct {
	spec     spec
	seed     int64
	sqls     []string
	profZipf zipf
	qZipf    zipf
	// texts holds the initial profile texts, index = profile number.
	texts []string

	mu    sync.Mutex
	perms map[stratKey][]int
}

// Choices a request draws stratified, each with its own permutations.
const (
	dimEndpoint = iota
	dimProfile
	dimQuery
	dimProblem
)

// stratKey names the permutation of one block of one choice.
type stratKey struct {
	seed          int64
	stream        uint64
	dim, n, block int
}

// strat returns request i's stratified uniform for one choice. The stream
// is cut into blocks of n requests, and a seeded permutation gives each
// request of a block its own 1/n stratum; r places it within the stratum.
// Every n consecutive requests then carry a choice's exact shares — each
// of 120 queries once per 120 requests, the endpoint mix to the percent
// per 100 — so the cost mix of a run's requests does not move with the
// luck of a seed's draws.
func (g *generator) strat(r *rng, seed int64, stream uint64, dim, n, i int) float64 {
	k := stratKey{seed, stream, dim, n, i / n}
	g.mu.Lock()
	perm, ok := g.perms[k]
	if !ok {
		pr := newRNG(seed, 1<<20|stream<<8|uint64(dim), uint64(k.block))
		perm = make([]int, n)
		for j := range perm {
			perm[j] = j
		}
		for j := n - 1; j > 0; j-- {
			x := int(pr.next() % uint64(j+1))
			perm[j], perm[x] = perm[x], perm[j]
		}
		g.perms[k] = perm
	}
	g.mu.Unlock()
	return (float64(perm[i%n]) + r.float()) / float64(n)
}

func profileID(i int) string { return fmt.Sprintf("u%04d", i) }

func newGenerator(s spec, seed int64) *generator {
	g := &generator{spec: s, seed: seed,
		profZipf: newZipf(s.Profiles, s.ProfileZipf),
		qZipf:    newZipf(s.Queries, s.QueryZipf),
		perms:    map[stratKey][]int{},
	}
	for _, q := range workload.Queries(s.Queries, dataSeed) {
		g.sqls = append(g.sqls, q.SQL())
	}
	g.texts = make([]string, s.Profiles)
	for i := range g.texts {
		g.texts[i] = g.profileText(seed*1_000_003 + int64(i))
	}
	return g
}

func (g *generator) profileText(seed int64) string {
	return workload.GenerateProfile(workload.ProfileConfig{
		SelectionPrefs: g.spec.SelPrefs, Seed: seed,
	}).String()
}

// neverWritten reports whether writes skip profile p: a fixed eighth of
// the profiles, hot ones included, keep their initial text for the whole
// run, so their answers can be checked against references computed before
// it.
func neverWritten(p int) bool { return p%8 == 1 }

// request builds request i of the measured stream.
func (g *generator) request(i int) request { return g.draw(g.seed, streamRequests, i) }

// warmup builds request i of the warm-up stream. It is drawn from the fixed
// dataSeed, not --seed, so every run warms up with the same endpoints,
// queries and profile numbers: drawn per seed, the warm-up's cost, and so
// setup_s, moved with the seed.
func (g *generator) warmup(i int) request { return g.draw(dataSeed, streamWarmup, i) }

func (g *generator) draw(seed int64, stream uint64, i int) request {
	r := newRNG(seed, stream, uint64(i))
	u := g.strat(r, seed, stream, dimEndpoint, 100, i)
	ep := g.spec.Mix[len(g.spec.Mix)-1].Endpoint
	for _, sh := range g.spec.Mix {
		if u < sh.Frac {
			ep = sh.Endpoint
			break
		}
		u -= sh.Frac
	}
	req := request{Index: i, Endpoint: ep, Method: "POST", Path: "/" + ep}
	switch ep {
	case epProfilePut:
		p := g.profZipf.at(g.strat(r, seed, stream, dimProfile, g.spec.Profiles, i))
		if neverWritten(p) {
			p--
		}
		req.Method, req.Path = "PUT", "/profiles/"+profileID(p)
		req.Profile, req.Query = p, -1
		req.Body = []byte(g.profileText(int64(mix64(uint64(seed)^mix64(streamRewrite<<40^uint64(i))) >> 1)))
		req.Desc = "put " + profileID(p)
		return req
	case epBatch:
		req.Path = "/personalize/batch"
		bb := batchBody{Execute: true, Limit: execLimit}
		for k := 0; k < g.spec.BatchItems; k++ {
			p, q := g.pick(r)
			bb.Items = append(bb.Items, g.executeBody(p, q))
		}
		req.Items = bb.Items
		req.Body = mustJSON(bb)
		req.Profile, req.Query = -1, -1
		req.Desc = string(req.Body)
		return req
	}
	p := g.profZipf.at(g.strat(r, seed, stream, dimProfile, g.spec.Profiles, i))
	q := g.qZipf.at(g.strat(r, seed, stream, dimQuery, g.spec.Queries, i))
	req.Profile, req.Query = p, q
	var body pipelineBody
	switch ep {
	case epPersonalize:
		v := g.strat(r, seed, stream, dimProblem, 20, i)
		prob := g.spec.Problems[len(g.spec.Problems)-1].prob
		for _, pv := range g.spec.Problems {
			if v < pv.weight {
				prob = pv.prob
				break
			}
			v -= pv.weight
		}
		body = pipelineBody{SQL: g.sqls[q], ProfileID: profileID(p), Problem: &prob, Budget: g.spec.Budget}
	case epFront:
		body = pipelineBody{SQL: g.sqls[q], ProfileID: profileID(p), CmaxMS: frontCmaxMS, MaxPoints: frontPoints}
		if g.spec.Budget > 0 {
			body.Budget = g.spec.Budget
		}
	case epTopK:
		body = pipelineBody{SQL: g.sqls[q], ProfileID: profileID(p), CmaxMS: topKCmaxMS, K: topK}
	case epExecute:
		body = g.executeBody(p, q)
	}
	req.Body = mustJSON(body)
	req.Desc = ep + " " + string(req.Body)
	return req
}

func (g *generator) pick(r *rng) (profile, query int) {
	return g.profZipf.draw(r), g.qZipf.draw(r)
}

func (g *generator) executeBody(p, q int) pipelineBody {
	return pipelineBody{
		SQL: g.sqls[q], ProfileID: profileID(p),
		Problem: &problemBody{Number: 2, CmaxMS: execCmaxMS},
		Budget:  g.spec.Budget, Limit: execLimit,
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs are marshalled
	}
	return b
}

// checked reports whether request i of the measured stream is in the
// correctness sample: every sampleEvery-th request, skipping writes and
// reads of profiles the run may rewrite.
func (g *generator) checked(req request) bool {
	if req.Index%sampleEvery != 0 || req.Endpoint == epProfilePut {
		return false
	}
	if hasPut(g.spec) {
		return req.Profile >= 0 && neverWritten(req.Profile)
	}
	return true
}

func hasPut(s spec) bool {
	for _, sh := range s.Mix {
		if sh.Endpoint == epProfilePut {
			return true
		}
	}
	return false
}

const (
	sampleEvery = 4  // every 4th stream request is checked...
	sampleMax   = 24 // ...up to this many distinct ones
)

// sample returns the checked requests among the first n of the stream.
func (g *generator) sample(n int) []request {
	var out []request
	seen := map[string]bool{}
	for i := 0; i < n && len(out) < sampleMax; i++ {
		req := g.request(i)
		if !g.checked(req) || seen[req.Desc] {
			continue
		}
		seen[req.Desc] = true
		out = append(out, req)
	}
	return out
}
