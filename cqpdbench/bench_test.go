package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"cqp"
)

// TestSameSeedSameInputs pins that a seed fixes every input byte for byte:
// profile texts, query texts and every request of the measured and warm-up
// streams; that another seed changes the profiles and the measured stream;
// and that the warm-up stream is the same whatever the seed.
func TestSameSeedSameInputs(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.Name, func(t *testing.T) {
			a, b, c := newGenerator(sp, 7), newGenerator(sp, 7), newGenerator(sp, 8)
			if !reflect.DeepEqual(a.texts, b.texts) || !reflect.DeepEqual(a.sqls, b.sqls) {
				t.Fatal("same seed, different profile or query texts")
			}
			if reflect.DeepEqual(a.texts, c.texts) {
				t.Fatal("seeds 7 and 8 generated the same profiles")
			}
			differs := false
			for i := 0; i < 400; i++ {
				for _, gen := range []func(*generator, int) request{(*generator).request, (*generator).warmup} {
					ra, rb := gen(a, i), gen(b, i)
					if ra.Method != rb.Method || ra.Path != rb.Path || !bytes.Equal(ra.Body, rb.Body) {
						t.Fatalf("request %d differs at the same seed:\n%s %s %s\n%s %s %s",
							i, ra.Method, ra.Path, ra.Body, rb.Method, rb.Path, rb.Body)
					}
				}
				differs = differs || !bytes.Equal(a.request(i).Body, c.request(i).Body)
				if wa, wc := a.warmup(i), c.warmup(i); wa.Path != wc.Path || !bytes.Equal(wa.Body, wc.Body) {
					t.Fatalf("warm-up request %d depends on the seed:\n%s %s\n%s %s", i, wa.Path, wa.Body, wc.Path, wc.Body)
				}
			}
			if !differs {
				t.Fatal("seeds 7 and 8 generated the same request stream")
			}
		})
	}
}

// TestStratifiedDraws pins the stratified stream: every 100 consecutive
// requests carry the endpoint mix to the percent, and on a workload that
// names queries uniformly no block of one query per query names a query
// twice.
func TestStratifiedDraws(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.Name, func(t *testing.T) {
			g := newGenerator(sp, 5)
			for b := 0; b < 12; b++ {
				counts := map[string]int{}
				for i := b * 100; i < (b+1)*100; i++ {
					counts[g.request(i).Endpoint]++
				}
				for _, sh := range sp.Mix {
					if want := int(100*sh.Frac + 0.5); counts[sh.Endpoint] != want {
						t.Fatalf("requests %d–%d carry %d %s, want %d", b*100, (b+1)*100-1, counts[sh.Endpoint], sh.Endpoint, want)
					}
				}
			}
			if sp.QueryZipf != 0 {
				return
			}
			for b := 0; b < 12; b++ {
				seen := map[int]int{}
				for i := b * sp.Queries; i < (b+1)*sp.Queries; i++ {
					req := g.request(i)
					if req.Query < 0 {
						continue
					}
					if j, dup := seen[req.Query]; dup {
						t.Fatalf("requests %d and %d of one block both name query %d", j, i, req.Query)
					}
					seen[req.Query] = i
				}
			}
		})
	}
}

// TestStreamShape checks each workload's stream against its definition:
// endpoint shares near the mix, writes never touching the profiles the
// correctness sample reads, and a full reference sample.
func TestStreamShape(t *testing.T) {
	const n = 4000
	for _, sp := range specs {
		t.Run(sp.Name, func(t *testing.T) {
			g := newGenerator(sp, 1)
			counts := map[string]int{}
			for i := 0; i < n; i++ {
				req := g.request(i)
				counts[req.Endpoint]++
				if req.Endpoint == epProfilePut && neverWritten(req.Profile) {
					t.Fatalf("request %d rewrites profile %d, which the sample reads", i, req.Profile)
				}
			}
			for _, sh := range sp.Mix {
				got := float64(counts[sh.Endpoint]) / n
				if got < sh.Frac-0.03 || got > sh.Frac+0.03 {
					t.Errorf("%s share %.3f, want about %.2f", sh.Endpoint, got, sh.Frac)
				}
			}
			// Writes land on the hot set the reads cache: the profiles that
			// take most reads take a like share of the writes.
			if hasPut(sp) {
				hot := map[int]bool{}
				for p := 0; p < 16; p++ {
					hot[p] = true
				}
				var reads, hotReads, puts, hotPuts float64
				for i := 0; i < n; i++ {
					req := g.request(i)
					if req.Profile < 0 {
						continue
					}
					if req.Endpoint == epProfilePut {
						puts++
						if hot[req.Profile] {
							hotPuts++
						}
					} else if reads++; hot[req.Profile] {
						hotReads++
					}
				}
				if hotPuts/puts < 0.5*hotReads/reads {
					t.Errorf("%.2f of writes land on the 16 hottest profiles, which take %.2f of reads", hotPuts/puts, hotReads/reads)
				}
			}
			for _, req := range g.sample(n) {
				if hasPut(sp) && !neverWritten(req.Profile) {
					t.Errorf("sampled request %d reads profile %d, which writes may change", req.Index, req.Profile)
				}
			}
			// A writing workload samples only its never-written profiles,
			// whose hot keys repeat; the others fill the sample.
			want := sampleMax
			if hasPut(sp) {
				want = sampleMax / 2
			}
			if got := len(g.sample(n)); got < want {
				t.Errorf("sample holds %d distinct requests, want at least %d", got, want)
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json equal to the benchmark's own
// definition: workload names and rationale, and every metric's name, unit,
// direction and bound.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d defined", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if w.Name != specs[i].Name || w.Why != specs[i].why() {
			t.Errorf("workload %d: BENCHMARK.json has %q: %q, the benchmark %q: %q", i, w.Name, w.Why, specs[i].Name, specs[i].why())
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer()) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", doc.PerLayer, perLayer())
	}
	// Each open loop must leave ten samples beyond its p99.
	for _, sp := range specs {
		if n := sp.RateRPS * float64(doc.RunSeconds) * openFrac; n < minOpenSamples {
			t.Errorf("%s: %.0f open-loop samples in %ds, want ≥ %d", sp.Name, n, doc.RunSeconds, minOpenSamples)
		}
	}
}

// TestReplayCountsRepeat runs the traced replay on small inputs and checks
// that its deterministic counters repeat across passes and that it fills
// every per-layer metric it owns.
func TestReplayCountsRepeat(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.Name, func(t *testing.T) {
			sp.Profiles, sp.ReplayRequests = 40, 40
			g := newGenerator(sp, 3)
			db := cqp.SyntheticMovieDB(sp.Movies, 3)
			m := map[string]float64{}
			if err := traceReplay(m, g, db, t.TempDir()); err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"prefspace.k", "sqlparse.parse_us", "prefs.parse_profile_us", "trace.spans", "core.self_frac"} {
				if m[name] <= 0 {
					t.Errorf("%s = %v, want > 0", name, m[name])
				}
			}
		})
	}
}

func TestQuantileNearestRank(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(1000 - i)
	}
	if got := quantile(v, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond)", got)
	}
	if got := quantile(v, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

func TestHistQuantileDelta(t *testing.T) {
	before := parseMetrics([]byte(`server_queue_wait_ms_bucket{le="1"} 10
server_queue_wait_ms_bucket{le="2"} 10
server_queue_wait_ms_bucket{le="+Inf"} 10
`))
	after := parseMetrics([]byte(`# TYPE server_queue_wait_ms histogram
server_queue_wait_ms_bucket{le="1"} 10
server_queue_wait_ms_bucket{le="2"} 110
server_queue_wait_ms_bucket{le="+Inf"} 110
`))
	q, n := after.delta(before).histQuantile("server_queue_wait_ms", 0.5)
	if n != 100 || q != 1.5 {
		t.Errorf("delta median = %v over %v samples, want 1.5 over 100", q, n)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{Name: "request", Start: 0, End: 10 * ms, Parent: -1},
		{Name: "core.solve", Start: 1 * ms, End: 7 * ms, Parent: 0},
		{Name: "exec.batch", Start: 7 * ms, End: 9 * ms, Parent: 0},
		{Name: "exec.execute", Start: 7 * ms, End: 8 * ms, Parent: 2},
	}
	self, total := selfTimes(spans)
	want := map[string]time.Duration{"request": 2 * time.Millisecond, "core": 6 * time.Millisecond, "exec": 2 * time.Millisecond}
	if total != 10*time.Millisecond || !reflect.DeepEqual(self, want) {
		t.Errorf("self %v total %v, want %v total 10ms", self, total, want)
	}
}
