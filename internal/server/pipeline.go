package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"cqp"
	"cqp/internal/obs"
	"cqp/internal/resilience"
)

// request is the one typed pipeline request every pipeline endpoint and
// every batch item becomes: the identity cqp.Request.Key covers, plus the
// resolved profile and the knobs that do not change the answer.
type request struct {
	cqp.Request
	prof *cqp.Profile
	// key is Key(), computed once: the batch dedups on it, and a cacheable
	// request also caches and coalesces on it.
	key string
	// stale marks a stored profile read from a failover replica: the
	// answer is marked stale_replica and never cached.
	stale bool
	// inBatch marks a batch item: it runs under its batch's context,
	// deadline and trace instead of opening its own.
	inBatch   bool
	timeoutMS int
	trace     bool
}

// request maps a /personalize or /execute body (or a batch item) onto the
// request value; newRequest resolves its query, problem and profile.
func (b *personalizeRequest) request(mode cqp.Mode, limit int) request {
	return request{
		Request: cqp.Request{
			Mode: mode, ProfileID: b.ProfileID, ProfileText: b.Profile,
			Opts:  buildOpts(b.Algorithm, b.K, b.Budget, b.AnyMatch, b.Merge),
			Limit: limit, NoCache: b.NoCache,
		},
		timeoutMS: b.TimeoutMS, trace: b.Trace,
	}
}

// newRequest finishes a request value: it parses the query, builds the
// problem (when the body carries one), resolves the profile and stamps the
// statistics generation — in that order, so the first error a body
// reports does not depend on the endpoint — and computes the key.
func (s *Server) newRequest(ctx context.Context, sql string, ps *problemSpec, req request) (*request, error) {
	q, err := cqp.ParseQuery(s.db.Schema(), sql)
	if err != nil {
		return nil, err
	}
	req.Query = q
	if ps != nil {
		if req.Problem, err = ps.build(); err != nil {
			return nil, err
		}
	}
	if req.prof, req.Version, req.stale, err = s.resolveProfile(ctx, req.ProfileID, req.ProfileText); err != nil {
		return nil, err
	}
	req.Generation = s.p.Generation()
	req.key = req.Key()
	return &req, nil
}

// decodeRequest decodes a pipeline endpoint's body (each endpoint keeps
// its own schema) into the request value, resolving the endpoint's
// defaults: the /execute row limit, the /topk answer count and cost bound.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, mode cqp.Mode) (*request, error) {
	switch mode {
	case cqp.ModeFront:
		var b frontRequest
		if err := s.decodeJSON(w, r, &b); err != nil {
			return nil, err
		}
		return s.newRequest(r.Context(), b.SQL, nil, request{
			Request: cqp.Request{
				Mode: mode, ProfileID: b.ProfileID, ProfileText: b.Profile,
				Problem: cqp.Problem{CostMax: b.CmaxMS, SizeMin: b.Smin, SizeMax: b.Smax},
				Opts:    buildOpts("", b.K, b.Budget, false, false),
				Limit:   b.MaxPoints, NoCache: b.NoCache,
			},
			timeoutMS: b.TimeoutMS, trace: b.Trace,
		})
	case cqp.ModeTopK:
		var b topkRequest
		if err := s.decodeJSON(w, r, &b); err != nil {
			return nil, err
		}
		if b.K <= 0 {
			b.K = 10
		}
		if b.CmaxMS <= 0 {
			b.CmaxMS = 400
		}
		return s.newRequest(r.Context(), b.SQL, nil, request{
			Request: cqp.Request{
				Mode: mode, ProfileID: b.ProfileID, ProfileText: b.Profile,
				Problem: cqp.Problem2(b.CmaxMS),
				Opts:    buildOpts("", b.MaxK, 0, false, false),
				Limit:   b.K, NoCache: b.NoCache,
			},
			timeoutMS: b.TimeoutMS, trace: b.Trace,
		})
	default:
		var b personalizeRequest
		if err := s.decodeJSON(w, r, &b); err != nil {
			return nil, err
		}
		limit := 0
		if mode == cqp.ModeExecute {
			limit = s.rowLimit(b.Limit)
		}
		return s.newRequest(r.Context(), b.SQL, &b.Problem, b.request(mode, limit))
	}
}

// rowLimit resolves an execute request's row cap (default Config.MaxRows).
func (s *Server) rowLimit(limit int) int {
	if limit <= 0 {
		return s.cfg.MaxRows
	}
	return limit
}

// buildOpts translates request knobs into Personalize options. A knob ≤ 0
// keeps the library default — a serving daemon never grants the unlimited
// paper-faithful search.
func buildOpts(alg string, k, budget int, anyMatch, merge bool) []cqp.Option {
	var opts []cqp.Option
	if alg != "" {
		opts = append(opts, cqp.WithAlgorithm(alg))
	}
	if k > 0 {
		opts = append(opts, cqp.WithMaxK(k))
	}
	if budget > 0 {
		opts = append(opts, cqp.WithStateBudget(budget))
	}
	if anyMatch {
		opts = append(opts, cqp.WithAnyMatch())
	}
	if merge {
		opts = append(opts, cqp.WithMergedSubQueries())
	}
	return opts
}

// modes is what varies between the four pipeline endpoints: how a request
// is answered and shaped, and whether its degradation ladder has a
// heuristic rung. /front and /topk have none — the frontier IS the
// exhaustive sweep, and top-k ranks rows rather than searching one
// problem — so they degrade only by tightening cmax (a shorter menu, fewer
// union branches, still truthful answers).
var modes = [...]struct {
	heuristic bool
	answer    func(s *Server, ctx context.Context, r *request) (any, error)
}{
	cqp.ModePersonalize: {true, func(s *Server, ctx context.Context, r *request) (any, error) {
		res, err := s.p.PersonalizeContext(ctx, r.Query, r.prof, r.Problem, r.Opts...)
		if err != nil {
			return nil, err
		}
		return personalizeResponseFrom(res, r.ProfileID, r.Version), nil
	}},
	cqp.ModeExecute: {true, func(s *Server, ctx context.Context, r *request) (any, error) {
		res, err := s.p.PersonalizeContext(ctx, r.Query, r.prof, r.Problem, r.Opts...)
		if err != nil {
			return nil, err
		}
		rows, err := res.ExecuteContext(ctx)
		if err != nil {
			return nil, err
		}
		return executeResponseFrom(res, rows, r.ProfileID, r.Version, r.Limit), nil
	}},
	cqp.ModeFront: {false, func(s *Server, ctx context.Context, r *request) (any, error) {
		front, err := s.p.PersonalizeFrontContext(ctx, r.Query, r.prof,
			r.Problem.CostMax, r.Problem.SizeMin, r.Problem.SizeMax, r.Limit, r.Opts...)
		if err != nil {
			return nil, err
		}
		fr := &frontResponse{
			Points:    make([]frontPointJSON, 0, len(front.Points)),
			Truncated: front.Truncated,
		}
		for _, fp := range front.Points {
			fr.Points = append(fr.Points, frontPointJSON{
				Preferences: fp.Preferences,
				Doi:         fp.Doi,
				CostMS:      fp.CostMS,
				SizeRows:    fp.Size,
				Knee:        fp.Knee,
			})
		}
		return fr, nil
	}},
	cqp.ModeTopK: {false, func(s *Server, ctx context.Context, r *request) (any, error) {
		answers, err := s.p.PersonalizeTopKContext(ctx, r.Query, r.prof, r.Problem.CostMax, r.Limit, r.Opts...)
		if err != nil {
			return nil, err
		}
		out := &topkResponse{Answers: make([]rowJSON, 0, len(answers))}
		for _, a := range answers {
			out.Answers = append(out.Answers, rowJSON{Values: rowValues(a.Row), Doi: a.Doi, Matched: a.Matched})
		}
		return out, nil
	}},
}

// build is the pipeline closure answering req.
func (s *Server) build(req request) func(context.Context) (any, error) {
	return func(ctx context.Context) (any, error) { return modes[req.Mode].answer(s, ctx, &req) }
}

// ladder returns req's cheaper rungs, tried in order after the stale
// cache: the D-HEURDOI heuristic where the mode has one, then a tightened
// cmax (still under the heuristic) when the request has a cost bound to
// tighten.
func (s *Server) ladder(req request) []resilience.Step {
	var rungs []resilience.Step
	if modes[req.Mode].heuristic {
		req.Opts = append(req.Opts[:len(req.Opts):len(req.Opts)], cqp.WithAlgorithm("D_HeurDoi"))
		rungs = append(rungs, s.step("heuristic", s.build(req)))
	}
	if req.Problem.CostMax > 0 {
		req.Problem.CostMax *= s.cfg.TightenFactor
		rungs = append(rungs, s.step("tight-cmax", s.build(req)))
	}
	return rungs
}

// cacheKeys returns the result-cache key and its version-free stale
// companion; both are "" for a request that must not touch the cache (an
// inline or replica-read profile, or no_cache).
func (r *request) cacheKeys() (key, stale string) {
	if r.ProfileID == "" || r.stale || r.NoCache {
		return "", ""
	}
	return r.key, cqp.StaleKey(r.key)
}

// response is what serve needs of a response type: a pointer to it, whose
// per-request tail it can set.
type response[T any] interface {
	*T
	tail() *responseTail
}

// copyOf copies a shared (cached or coalesced) response value, so the
// per-request tail can be set without touching the shared one.
func copyOf[T any, P response[T]](v any) P {
	c := *v.(P)
	return &c
}

// serve is the one pipeline path: every pipeline endpoint and every batch
// item takes it. It labels the profile; answers from the result cache when
// it can; otherwise opens the request context (a batch item runs under
// its batch's) and runs the coalesced, admission-controlled pipeline with
// the mode's ladder; on shedding it falls back to the last good stale
// answer; it marks stale_replica answers, fills the cache and attaches the
// trace. Role, rung and phases land on the flight record in ctx.
func serve[T any, P response[T]](s *Server, ctx context.Context, req *request) (P, error) {
	rec := obs.RequestFromContext(ctx)
	lp := startLaps(rec)
	rec.SetProfile(profileLabel(req.ProfileID, req.Version))
	lp.lap(obs.PhaseParse)
	name := req.Mode.String()
	key, staleKey := req.cacheKeys()
	if key != "" {
		v, ok := s.cacheGet(key)
		lp.lap(obs.PhaseCache)
		if ok {
			rec.SetRole("hit")
			resp := copyOf[T, P](v)
			t := resp.tail()
			t.Cached = true
			if req.trace {
				t.Trace = cacheHitTrace(rec, name).Tree()
				t.RequestID, t.AttributionUS = attribution(rec)
			}
			return resp, nil
		}
	}
	var tr *obs.Span
	if !req.inBatch {
		var cancel context.CancelFunc
		ctx, cancel, tr = s.requestContext(ctx, req.timeoutMS, name)
		defer cancel()
	}
	o, leader := s.runPipeline(ctx, name, key, staleKey, s.build(*req), s.ladder(*req)...)
	switch {
	case o.admitErr != nil:
		// Shed: answer with the last good stale answer when there is one —
		// shedding quality instead of the request.
		v, ok := s.cache.GetStale(staleKey)
		if !ok {
			if errors.Is(o.admitErr, context.DeadlineExceeded) {
				return nil, fmt.Errorf("server: deadline expired: %w", o.admitErr)
			}
			return nil, o.admitErr
		}
		s.reg.Counter("server_degraded_total", "endpoint", name, "rung", "stale").Inc()
		rec.SetRung("stale")
		resp := copyOf[T, P](v)
		resp.tail().Cached, resp.tail().Degraded = true, "stale"
		return resp, nil
	case o.perr != nil:
		if errors.Is(o.perr, resilience.ErrExhausted) {
			rec.SetRung("unavailable")
		}
		return nil, o.perr
	case o.out == nil:
		return nil, errDeadlineSkipped
	}
	resp := copyOf[T, P](o.out)
	t := resp.tail()
	t.Degraded = o.degraded
	if req.stale && t.Degraded == "" {
		t.Degraded = degradedStaleReplica
	}
	rec.SetRung(t.Degraded)
	if leader && o.degraded == "" {
		s.cachePut(key, staleKey, req.ProfileID, o.out)
	} else if o.degraded == "stale" {
		t.Cached = true
	}
	if tr != nil {
		tr.End()
	}
	if req.trace {
		t.Trace = tr.Tree()
		t.RequestID, t.AttributionUS = attribution(rec)
	}
	return resp, nil
}

// servePipeline is a pipeline endpoint: decode the body into the request
// value, take the shared path, write the answer or the error.
func servePipeline[T any, P response[T]](s *Server, mode cqp.Mode) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req, err := s.decodeRequest(w, r, mode)
		var resp P
		if err == nil {
			req.trace = wantTrace(r, req.trace)
			resp, err = serve[T, P](s, r.Context(), req)
		}
		if err != nil {
			s.fail(w, 0, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}
