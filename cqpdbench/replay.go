package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"time"

	"cqp"
	"cqp/internal/catalog"
	"cqp/internal/core"
	"cqp/internal/estimate"
	"cqp/internal/exec"
	"cqp/internal/obs"
	"cqp/internal/prefs"
	"cqp/internal/prefspace"
	"cqp/internal/rewrite"
	"cqp/internal/server"
	"cqp/internal/sqlparse"
	"cqp/internal/wal"
)

// The traced replay runs the workload's request stream in process, in one
// goroutine, through each layer's public functions in Figure-2 order:
// server decode and result cache, sqlparse, the profile store (which
// parses a written profile with prefs), prefspace with the estimator, core
// search, rewrite, exec, and server encode. The benchmark wraps each call
// in a span; the program itself carries no instrumentation for it.

// span is one timed call. Start and End are nanoseconds since the pass
// began; Parent indexes the enclosing span (-1 for a request root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer records spans in memory when on; off, every method is a no-op so
// the untraced pass runs the same calls.
type tracer struct {
	on    bool
	t0    time.Time
	req   int
	spans []span
	stack []int
}

func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: t.req})
	t.stack = append(t.stack, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if !t.on {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// allocs reads the process's cumulative heap allocation count. Valid as a
// per-call delta because the replay runs in one goroutine.
func allocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// replayCounts are the replay's deterministic counters: two passes over
// the same stream at the same seed must produce them exactly.
type replayCounts struct {
	Requests     int
	CacheLookups int
	CacheHits    int
	Builds       int
	KSum         int
	EstCalls     int64
	MemoHits     int64
	MemoMisses   int64
	Solves       int
	Fronts       int
	States       int64
	Truncated    int
	Constructs   int
	Subqueries   int
	Executes     int
	BlockReads   int64
	RowsScanned  int64
	RowsOut      int64
	Batches      int
	ShareShared  int64
	SharePhys    int64
	Puts         int
	WALBytes     int64
	SQLParses    int
}

// replayPass is the outcome of one pass.
type replayPass struct {
	counts  replayCounts
	elapsed time.Duration
	spans   []span
	// traced passes only: per-call allocation counts, and the parse time
	// of each stored profile loaded before the stream
	solveAllocs   []float64
	execAllocs    []float64
	profileParses []float64
}

// replayer holds what every pass shares: the database and its catalog.
type replayer struct {
	g       *generator
	db      *cqp.DB
	cat     *catalog.Catalog
	reg     *obs.Registry // storage counters of db
	dataDir string        // durable store directory (hot-readwrite), "" otherwise
	n       int           // requests replayed
}

func (rp *replayer) rowsScanned() int64 {
	var n int64
	for _, rel := range rp.db.Schema().RelationNames() {
		n += rp.reg.Counter("storage_rows_scanned_total", "table", rel).Value()
	}
	return n
}

// cached is one result-cache value: the encoded answer.
type cached []byte

// pass replays the first rp.n stream requests once, from fresh estimator,
// cache and profile-store state.
func (rp *replayer) pass(traced bool) (*replayPass, error) {
	ctx := context.Background()
	sch := rp.db.Schema()
	est := estimate.New(rp.cat, estimate.DefaultBlockMillis)
	est.EnableTiming()
	cache := server.NewCache(1024, nil)
	var store *server.ProfileStore
	if rp.dataDir != "" {
		if err := os.RemoveAll(rp.dataDir); err != nil {
			return nil, err
		}
		policy, err := wal.ParseSyncPolicy(rp.g.spec.Fsync)
		if err != nil {
			return nil, err
		}
		// Automatic snapshots stay off so the directory's growth is the
		// log bytes the replayed writes appended.
		store, _, err = server.NewDurableProfileStore(sch, rp.dataDir, wal.Options{Sync: policy, SnapshotEvery: -1})
		if err != nil {
			return nil, err
		}
		defer store.Close()
	} else {
		store = server.NewProfileStore(sch)
	}
	out := &replayPass{}
	// Loading the stored profiles times prefs parsing on every workload,
	// whether or not its stream writes any.
	for i, text := range rp.g.texts {
		t := time.Now()
		p, err := prefs.ParseProfile(text)
		if err == nil {
			err = p.Validate(sch)
		}
		if traced {
			out.profileParses = append(out.profileParses, float64(time.Since(t)))
		}
		if err != nil {
			return nil, err
		}
		if _, err := store.Put(profileID(i), text); err != nil {
			return nil, err
		}
	}
	walBase := int64(0)
	if rp.dataDir != "" {
		var err error
		if walBase, err = dirBytes(rp.dataDir); err != nil {
			return nil, err
		}
	}

	reqs := make([]request, rp.n)
	for i := range reqs {
		reqs[i] = rp.g.request(i)
	}
	c := &out.counts
	tr := &tracer{on: traced}
	scan0 := rp.rowsScanned()
	start := time.Now()
	tr.t0 = start

	// stages runs sqlparse → prefspace → core → rewrite for one pipeline
	// body; front answers stop after core.
	type staged struct {
		sp    *prefspace.Space
		sol   core.Solution
		front []core.ParetoPoint
		pq    *rewrite.Personalized
	}
	stages := func(endpoint string, b pipelineBody) (*staged, error) {
		st := &staged{}
		s := tr.begin("sqlparse.parse")
		q, err := sqlparse.Parse(sch, b.SQL)
		tr.end(s)
		c.SQLParses++
		if err != nil {
			return nil, err
		}
		sp, ok := store.Get(b.ProfileID)
		if !ok {
			return nil, fmt.Errorf("no profile %q", b.ProfileID)
		}
		var prob core.Problem
		cmax := b.CmaxMS
		anyMatch := endpoint == epTopK
		switch endpoint {
		case epPersonalize, epExecute:
			prob = core.Problem2(400)
			if b.Problem != nil && b.Problem.Number != 0 {
				if prob, err = cqp.BuildProblem(b.Problem.Number, b.Problem.CmaxMS, b.Problem.Smin, b.Problem.Smax, 0); err != nil {
					return nil, err
				}
			}
			cmax = prob.CostMax
		case epTopK:
			prob = core.Problem2(b.CmaxMS)
		}
		s = tr.begin("prefspace.build")
		calls0, _ := est.TimingTotals()
		h0, m0 := est.MemoCounts()
		space, err := prefspace.BuildContext(ctx, q, sp.Profile, est, prefspace.Options{MaxK: 20, CostMax: cmax})
		tr.end(s)
		if err != nil {
			return nil, err
		}
		calls1, _ := est.TimingTotals()
		h1, m1 := est.MemoCounts()
		c.Builds++
		c.KSum += space.K
		c.EstCalls += calls1 - calls0
		c.MemoHits += h1 - h0
		c.MemoMisses += m1 - m0
		st.sp = space

		in := core.FromSpace(space)
		in.StateBudget = 1 << 20
		if b.Budget > 0 {
			in.StateBudget = b.Budget
		}
		var a0 uint64
		if traced {
			a0 = allocs()
		}
		if endpoint == epFront {
			s = tr.begin("core.front")
			front, stats := core.ParetoFront(in, core.ParetoOptions{CostMax: b.CmaxMS, MaxPoints: b.MaxPoints})
			tr.end(s)
			c.Fronts++
			c.States += int64(stats.StatesVisited)
			if stats.Truncated {
				c.Truncated++
			}
			st.front = front
			return st, nil
		}
		s = tr.begin("core.solve")
		sol, err := core.Solve(in, prob, "")
		tr.end(s)
		if traced {
			out.solveAllocs = append(out.solveAllocs, float64(allocs()-a0))
		}
		if err != nil {
			return nil, err
		}
		if !sol.Feasible {
			return nil, fmt.Errorf("infeasible: %s", prob)
		}
		c.Solves++
		c.States += int64(sol.Stats.StatesVisited)
		if sol.Stats.Truncated {
			c.Truncated++
		}
		st.sol = sol
		chosen := make([]prefspace.Pref, 0, len(sol.Set))
		for _, i := range sol.Set {
			chosen = append(chosen, space.P[i])
		}
		s = tr.begin("rewrite.construct")
		st.pq = rewrite.Construct(q, chosen, !anyMatch)
		tr.end(s)
		c.Constructs++
		c.Subqueries += len(st.pq.Subs)
		return st, nil
	}
	execute := func(ctx context.Context, st *staged, topk int) (*exec.UnionResult, error) {
		var a0 uint64
		if traced {
			a0 = allocs()
		}
		var res *exec.UnionResult
		var err error
		if topk > 0 {
			res, err = st.pq.ExecuteTopKContext(ctx, rp.db, topk)
		} else {
			res, err = st.pq.ExecuteContext(ctx, rp.db)
		}
		if traced {
			out.execAllocs = append(out.execAllocs, float64(allocs()-a0))
		}
		if err != nil {
			return nil, err
		}
		c.Executes++
		c.BlockReads += res.BlockReads
		c.RowsOut += int64(len(res.Rows))
		return res, nil
	}
	respond := func(endpoint string, st *staged, res *exec.UnionResult, limit int) pipelineResp {
		var r pipelineResp
		if st.front != nil || endpoint == epFront {
			for _, fp := range st.front {
				names := make([]string, 0, len(fp.Set))
				for _, i := range fp.Set {
					names = append(names, st.sp.P[i].Imp.String())
				}
				r.Points = append(r.Points, frontPoint{Preferences: names, Doi: fp.Doi, CostMS: fp.Cost, SizeRows: fp.Size})
			}
			return r
		}
		r.SQL = st.pq.SQL()
		for _, i := range st.sol.Set {
			r.Preferences = append(r.Preferences, st.sp.P[i].Imp.String())
			r.PreferenceDois = append(r.PreferenceDois, st.sp.P[i].Doi)
		}
		r.Solution = solutionResp{Doi: st.sol.Doi, StatesVisited: st.sol.Stats.StatesVisited, Truncated: st.sol.Stats.Truncated}
		if res != nil {
			rows := make([]rowResp, 0, limit)
			for i, rr := range res.Rows {
				if i >= limit {
					break
				}
				rows = append(rows, rowResp{Values: rowValues(rr.Key), Doi: rr.Doi, Matched: len(rr.Matched)})
			}
			if endpoint == epTopK {
				r.Answers = rows
			} else {
				r.Rows, r.TotalRows, r.BlockReads = rows, len(res.Rows), res.BlockReads
			}
		}
		return r
	}
	encode := func(v any) []byte {
		s := tr.begin("server.encode")
		b, _ := json.Marshal(v)
		tr.end(s)
		return b
	}
	// lookup consults the result cache under the request's identity.
	lookup := func(endpoint string, b pipelineBody) (string, cached, bool) {
		s := tr.begin("server.cache")
		sp, _ := store.Get(b.ProfileID)
		var ver uint64
		if sp != nil {
			ver = sp.Version
		}
		key := fmt.Sprintf("%s|%s@%d|%s", endpoint, b.ProfileID, ver, mustJSON(b))
		v, hit := cache.Get(key)
		tr.end(s)
		c.CacheLookups++
		if !hit {
			return key, nil, false
		}
		c.CacheHits++
		return key, v.(cached), true
	}
	store1 := func(key, profile string, val []byte) {
		s := tr.begin("server.cache")
		cache.Put(key, profile, cached(val))
		tr.end(s)
	}

	for _, req := range reqs {
		tr.req = req.Index
		root := tr.begin("request")
		c.Requests++
		var err error
		switch req.Endpoint {
		case epProfilePut:
			id := strings.TrimPrefix(req.Path, "/profiles/")
			// Put parses and validates the text itself, as cqpd's PUT
			// handler relies on, so this span includes one prefs parse;
			// prefs.parse_profile_us times the parse on its own.
			s := tr.begin("profilestore.put")
			_, err = store.Put(id, string(req.Body))
			tr.end(s)
			c.Puts++
			s = tr.begin("server.cache")
			cache.InvalidateProfile(id)
			tr.end(s)
			encode(map[string]string{"id": id})
		case epBatch:
			s := tr.begin("server.decode")
			var bb batchBody
			err = json.Unmarshal(req.Body, &bb)
			tr.end(s)
			if err != nil {
				break
			}
			c.Batches++
			results := make([]json.RawMessage, len(bb.Items))
			var pending []int
			sts := make([]*staged, len(bb.Items))
			keys := make([]string, len(bb.Items))
			for i, it := range bb.Items {
				key, val, hit := lookup(epExecute, it)
				keys[i] = key
				if hit {
					results[i] = json.RawMessage(val)
					continue
				}
				if sts[i], err = stages(epExecute, it); err != nil {
					break
				}
				pending = append(pending, i)
			}
			if err != nil {
				break
			}
			share := exec.NewScanShare(0)
			bctx := exec.WithScanShare(ctx, share)
			s = tr.begin("exec.batch")
			ress := make([]*exec.UnionResult, len(bb.Items))
			for _, i := range pending {
				if ress[i], err = execute(bctx, sts[i], 0); err != nil {
					break
				}
			}
			tr.end(s)
			if err != nil {
				break
			}
			phys, shared := share.Stats()
			c.SharePhys += phys
			c.ShareShared += shared
			for _, i := range pending {
				b := encode(respond(epExecute, sts[i], ress[i], bb.Limit))
				results[i] = b
				store1(keys[i], bb.Items[i].ProfileID, b)
			}
			encode(map[string]any{"results": results})
		default:
			s := tr.begin("server.decode")
			var b pipelineBody
			err = json.Unmarshal(req.Body, &b)
			tr.end(s)
			if err != nil {
				break
			}
			key, val, hit := lookup(req.Endpoint, b)
			if hit {
				encode(json.RawMessage(val))
				break
			}
			var st *staged
			if st, err = stages(req.Endpoint, b); err != nil {
				break
			}
			var res *exec.UnionResult
			switch req.Endpoint {
			case epExecute:
				s = tr.begin("exec.execute")
				res, err = execute(ctx, st, 0)
				tr.end(s)
			case epTopK:
				s = tr.begin("exec.topk")
				res, err = execute(ctx, st, b.K)
				tr.end(s)
			}
			if err != nil {
				break
			}
			enc := encode(respond(req.Endpoint, st, res, max(b.Limit, b.K)))
			store1(key, b.ProfileID, enc)
		}
		tr.end(root)
		if err != nil {
			return nil, fmt.Errorf("replay request %d (%s): %w", req.Index, req.Endpoint, err)
		}
	}
	out.elapsed = time.Since(start)
	c.RowsScanned = rp.rowsScanned() - scan0
	if rp.dataDir != "" {
		n, err := dirBytes(rp.dataDir)
		if err != nil {
			return nil, err
		}
		c.WALBytes = n - walBase
	}
	out.spans = tr.spans
	return out, nil
}

// layerOf maps a span name to its layer: the part before the dot.
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// selfTimes sums each layer's self time — its spans' durations minus the
// time their child spans cover — and returns it with the total root time.
func selfTimes(spans []span) (map[string]time.Duration, time.Duration) {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]time.Duration{}
	var total time.Duration
	for i, s := range spans {
		d := s.End - s.Start
		self[layerOf(s.Name)] += time.Duration(d - child[i])
		if s.Parent < 0 {
			total += time.Duration(d)
		}
	}
	return self, total
}

// spanDurations lists the durations of every span with the given name.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
