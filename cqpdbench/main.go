// Command cqpdbench is the repository's benchmark: it builds nothing
// itself (run.sh builds cqpd and this program from the tree), generates a
// workload's inputs from a seed, serves them from a real cqpd on loopback,
// drives the workload's request stream in alternating closed-loop and
// open-loop stretches over at most GOMAXPROCS connections, checks the
// answers against in-process references, and prints one JSON result line.
//
// Usage:
//
//	cqpdbench -cqpd <binary> -dir <work dir> --workload search-bound --seed 1 --seconds 36 --trace 0
//
// With --trace 1 it also runs the traced replay and prints the per-layer
// metrics instead of the end-to-end ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"cqp"
	"cqp/internal/workload"
)

// A run sets cqpd up setupsBefore times before the measured phases — the
// last of these daemons is the one measured — and setupsAfter times after
// them; setup_s is the median of all. Spreading the set-ups over the run
// keeps a slow spell of a shared host from moving every one of them.
const (
	setupsBefore = 3
	setupsAfter  = 2
)

// minOpenSamples keeps ten samples beyond the open-loop p99.
const minOpenSamples = 1000

// openFrac is the share of --seconds spent in the open loop; the closed
// loop gets the rest.
const openFrac = 0.75

// slices is how many alternating closed-loop and open-loop stretches the
// measured time is cut into. The host's speed drifts over seconds, so each
// metric sampled across the whole run moves less than one sampled in a
// single stretch of it.
const slices = 8

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	cqpd     string
	dir      string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+workloadNames())
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 24, "measured seconds, cut into alternating closed-loop and open-loop slices")
	flag.IntVar(&trace, "trace", 0, "1 = also run the traced replay and print the per-layer metrics")
	flag.StringVar(&cfg.cqpd, "cqpd", "", "cqpd binary to serve the workload")
	flag.StringVar(&cfg.dir, "dir", ".bench_build", "work directory for generated inputs, logs and traces")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.cqpd == "" || cfg.workload == "" {
		fmt.Fprintln(os.Stderr, "cqpdbench: -cqpd and --workload are required")
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cqpdbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cqpdbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func workloadNames() string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return strings.Join(names, ", ")
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func run(cfg config) (*result, error) {
	sp, err := specByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	conns := runtime.GOMAXPROCS(0)
	openDur := time.Duration(float64(cfg.seconds) * openFrac * float64(time.Second))
	closedDur := time.Duration(cfg.seconds)*time.Second - openDur
	nOpen := int(sp.RateRPS * openDur.Seconds())
	if nOpen < minOpenSamples {
		return nil, fmt.Errorf("%d open-loop requests at %g req/s over %s leave fewer than ten samples beyond p99; raise --seconds",
			nOpen, sp.RateRPS, openDur)
	}
	work, err := filepath.Abs(filepath.Join(cfg.dir, "run-"+sp.Name))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	csvDir := filepath.Join(work, "csv")
	if err := os.MkdirAll(csvDir, 0o755); err != nil {
		return nil, err
	}
	m := map[string]float64{}

	// Inputs: the database as CSVs, the profile texts and the stream.
	t := time.Now()
	if err := writeCSVs(csvDir, sp.Movies, dataSeed); err != nil {
		return nil, err
	}
	g := newGenerator(sp, cfg.seed)
	m["setup.datagen_s"] = time.Since(t).Seconds()

	// References, computed in process before anything is timed.
	db, err := loadDB(csvDir)
	if err != nil {
		return nil, err
	}
	t = time.Now()
	p, err := cqp.NewPersonalizerWith(db)
	if err != nil {
		return nil, err
	}
	m["setup.catalog_s"] = time.Since(t).Seconds()
	rf := &referee{p: p, db: db, texts: g.texts}
	refs := map[string]answer{}
	for _, req := range g.sample(nOpen) {
		a, err := rf.answer(req)
		if err != nil {
			return nil, fmt.Errorf("reference for request %d: %w", req.Index, err)
		}
		refs[req.Desc] = a
	}

	var d *daemon
	var chk *checker
	var setups, loads []float64
	setUpOnce := func(k int) error {
		d.stop()
		var setup, load time.Duration
		d, chk, setup, load, err = setUp(sp, g, cfg.cqpd, work, k, conns, refs)
		if err != nil {
			return err
		}
		setups = append(setups, setup.Seconds())
		loads = append(loads, load.Seconds())
		return nil
	}
	for k := 0; k < setupsBefore; k++ {
		if err := setUpOnce(k); err != nil {
			return nil, err
		}
	}
	defer func() { d.stop() }()

	dr := &loader{d: d, g: g, chk: chk, conns: conns}
	before, err := d.scrape()
	if err != nil {
		return nil, err
	}
	reqs := make([]request, nOpen)
	for i := range reqs {
		reqs[i] = g.request(i)
	}
	// Each slice runs a closed-loop stretch, then the next part of the
	// open-loop stream. The closed loop takes stream indices after the
	// open loop's.
	var open openResult
	var closed []sample
	var sliceRPS []float64
	for k := 0; k < slices; k++ {
		c, el := dr.closedLoop(nOpen+len(closed), closedDur/slices, g.request)
		for i := range c {
			c[i].Slice = k
		}
		closed = append(closed, c...)
		sliceRPS = append(sliceRPS, float64(succeeded(c))/el.Seconds())
		o := dr.openLoop(reqs[k*nOpen/slices:(k+1)*nOpen/slices], sp.RateRPS)
		for i := range o.Samples {
			o.Samples[i].Slice = k
		}
		open.Samples, open.Backlog = append(open.Samples, o.Samples...), open.Backlog+o.Backlog
	}
	after, err := d.scrape()
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	badAcks := dr.verifyAcked()
	for k := setupsBefore; k < setupsBefore+setupsAfter; k++ {
		if err := setUpOnce(k); err != nil {
			return nil, err
		}
	}
	d.stop()
	m["setup_s"] = median(setups)
	m["setup.profile_load_s"] = median(loads)
	if err := writeSamples(filepath.Join(work, "open.csv"), open.Samples); err != nil {
		return nil, err
	}
	if err := writeSamples(filepath.Join(work, "closed.csv"), closed); err != nil {
		return nil, err
	}

	res := &result{Correct: true, Metrics: map[string]value{}}
	var lat, lags []float64
	perEP := map[string][]float64{}
	for _, s := range open.Samples {
		res.Attempted++
		if !s.OK {
			res.Failed++
		}
		ms := float64(s.Latency) / 1e6
		lat = append(lat, ms)
		lags = append(lags, float64(s.Lag)/1e6)
		perEP[s.Endpoint] = append(perEP[s.Endpoint], ms)
	}
	res.Attempted += len(closed)
	res.Failed += len(closed) - succeeded(closed)
	var closedLat []float64
	for _, s := range closed {
		closedLat = append(closedLat, float64(s.Latency)/1e6)
	}
	m["p50_ms"] = quantile(lat, 0.50)
	m["p90_ms"] = quantile(lat, 0.90)
	m["p99_ms"] = quantile(lat, 0.99)
	m["closed_p50_ms"] = quantile(closedLat, 0.50)
	// The median over the slices' closed-loop stretches: a slow spell of
	// the host that covers a few of them does not move it.
	m["throughput_rps"] = median(sliceRPS)
	m["error_frac"] = float64(res.Failed) / float64(res.Attempted)
	m["success_frac"] = 1 - m["error_frac"]
	m["peak_rss_mb"] = rss
	m["gen.lag_p99_ms"] = quantile(lags, 0.99)
	m["gen.backlog"] = float64(open.Backlog)
	m["gen.open_samples"] = float64(len(open.Samples))
	m["check.compared"] = float64(dr.chk.compared)
	for _, ep := range endpoints {
		m["server."+ep+".p50_ms"] = quantile(perEP[ep], 0.50)
		m["server."+ep+".p99_ms"] = quantile(perEP[ep], 0.99)
		m["server."+ep+".samples"] = float64(len(perEP[ep]))
	}
	serverCounters(m, after.delta(before))

	for _, f := range dr.chk.failures {
		fmt.Fprintln(os.Stderr, "cqpdbench: failed:", f)
	}
	if len(badAcks) > 0 {
		res.Correct = false
		for _, b := range badAcks {
			fmt.Fprintln(os.Stderr, "cqpdbench: acked write lost:", b)
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	// A backlog that outgrew the connections means the open loop ran past
	// capacity: its latencies measure the queue, not the system.
	if limit := slices*conns + nOpen/20; open.Backlog > limit {
		return nil, fmt.Errorf("open-loop backlog grew to %d requests (limit %d) at %g req/s (closed-loop capacity %.1f req/s): the run is overloaded and is not a result",
			open.Backlog, limit, sp.RateRPS, m["throughput_rps"])
	}

	if cfg.trace {
		if err := traceReplay(m, g, db, work); err != nil {
			if _, mismatch := err.(countMismatch); !mismatch {
				return nil, err
			}
			fmt.Fprintln(os.Stderr, "cqpdbench:", err)
			res.Correct = false
		}
	}
	for _, md := range metricList(cfg.trace) {
		v, ok := m[md.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", md.Name)
		}
		res.Metrics[md.Name] = value{Value: v, Unit: md.Unit}
	}
	return res, nil
}

func succeeded(samples []sample) int {
	n := 0
	for _, s := range samples {
		if s.OK {
			n++
		}
	}
	return n
}

// writeSamples records a phase's samples for inspection: send offset,
// slice, endpoint, lag and latency in milliseconds, and the verdict.
func writeSamples(path string, samples []sample) error {
	var b strings.Builder
	b.WriteString("sent_ms,slice,endpoint,lag_ms,latency_ms,ok\n")
	t0 := samples[0].Sent
	for _, s := range samples {
		fmt.Fprintf(&b, "%.3f,%d,%s,%.3f,%.3f,%v\n", float64(s.Sent.Sub(t0))/1e6, s.Slice, s.Endpoint,
			float64(s.Lag)/1e6, float64(s.Latency)/1e6, s.OK)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// writeCSVs generates the seeded movie database and dumps one CSV per
// relation, the input cqpd's -csv flag loads.
func writeCSVs(dir string, movies int, seed int64) error {
	db := workload.GenerateDB(workload.DBConfig{Movies: movies, Seed: seed})
	for _, rel := range db.Schema().RelationNames() {
		f, err := os.Create(filepath.Join(dir, strings.ToLower(rel)+".csv"))
		if err != nil {
			return err
		}
		if err := cqp.DumpCSV(db, rel, f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// setUp starts cqpd over the generated inputs, stores every profile and
// sends the warm-up stream. The set-up time runs from launch until the
// warm-up is answered.
func setUp(sp spec, g *generator, bin, work string, k, conns int, refs map[string]answer) (*daemon, *checker, time.Duration, time.Duration, error) {
	dataDir := ""
	if sp.Fsync != "" {
		dataDir = filepath.Join(work, fmt.Sprintf("data-%d", k))
	}
	t := time.Now()
	d, err := startDaemon(bin, filepath.Join(work, "csv"), dataDir, sp.Fsync,
		filepath.Join(work, fmt.Sprintf("cqpd-%d.log", k)), conns)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	chk := newChecker(refs)
	dr := &loader{d: d, g: g, chk: chk, conns: conns}
	tl := time.Now()
	if err := dr.putAll(g.texts); err != nil {
		d.stop()
		return nil, nil, 0, 0, err
	}
	load := time.Since(tl)
	if err := dr.warm(sp.Warmup); err != nil {
		d.stop()
		return nil, nil, 0, 0, err
	}
	return d, chk, time.Since(t), load, nil
}

// serverCounters turns the /metrics deltas over the measured run into the
// server-layer ratios, each with its base count.
func serverCounters(m map[string]float64, dm scrapeSet) {
	hits, misses := dm.sum("server_cache_hits"), dm.sum("server_cache_misses")
	m["server.cache_lookups"] = hits + misses
	m["server.cache_hit_frac"] = ratio(hits, hits+misses)
	leaders, followers := dm.sum("coalesce_leaders_total"), dm.sum("coalesce_followers_total")
	m["server.coalesce_runs"] = leaders + followers
	m["server.coalesce_follower_frac"] = ratio(followers, leaders+followers)
	m["server.parse_p50_ms"], _ = dm.histQuantile("server_phase_ms", 0.50, `phase="parse"`)
	m["server.encode_p50_ms"], _ = dm.histQuantile("server_phase_ms", 0.50, `phase="encode"`)
	m["server.queue_p99_ms"], _ = dm.histQuantile("server_queue_wait_ms", 0.99)
	reqs := 0.0
	for _, ep := range endpoints {
		reqs += dm.sum("server_requests_total", `endpoint="`+ep+`"`)
	}
	m["server.requests"] = reqs
	m["server.shed_frac"] = ratio(dm.sum("server_shed_total"), reqs)
	m["server.degraded_frac"] = ratio(dm.sum("server_degraded_total"), reqs)
	mh, mm := dm.sum("estimate_memo_hits_total"), dm.sum("estimate_memo_misses_total")
	m["estimate.memo_lookups"] = mh + mm
	m["estimate.memo_hit_frac"] = ratio(mh, mh+mm)
	shared, phys := dm.sum("server_batch_shared_scans_total"), dm.sum("server_batch_physical_scans_total")
	m["exec.scanshare_opens"] = shared + phys
	m["exec.scanshare_hit_frac"] = ratio(shared, shared+phys)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
