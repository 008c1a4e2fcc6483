package server

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"cqp"
	"cqp/internal/exec"
	"cqp/internal/obs"
)

// batchRequest is the body of POST /personalize/batch: a list of
// /personalize-shaped items sharing one deadline. Per-item trace, timeout
// and limit fields are ignored — the batch is one request with one
// deadline, and traces don't compose across coalesced runs. Execute makes
// every item run its personalized query too (the /execute shape), under
// one scan share: each base relation is physically read once for the whole
// batch. Limit caps rows per executed item (default Config.MaxRows).
type batchRequest struct {
	Items     []personalizeRequest `json:"items"`
	TimeoutMS int                  `json:"timeout_ms"`
	Execute   bool                 `json:"execute"`
	Limit     int                  `json:"limit"`
}

// batchItemJSON is one item's outcome: a personalize response (plus the
// executed rows in execute mode) or a per-item error envelope, never both.
// Duplicate marks items answered by an identical earlier item's run.
type batchItemJSON struct {
	*personalizeResponse
	Rows       []rowJSON  `json:"rows,omitempty"`
	RowCount   int        `json:"row_count,omitempty"`
	TotalRows  int        `json:"total_rows,omitempty"`
	BlockReads int64      `json:"block_reads,omitempty"`
	ExecMS     float64    `json:"exec_ms,omitempty"`
	Duplicate  bool       `json:"duplicate,omitempty"`
	Error      *errorBody `json:"error,omitempty"`
}

// batchResponse is the body of a /personalize/batch answer. Results is
// aligned index-for-index with the request's items.
type batchResponse struct {
	Results []batchItemJSON `json:"results"`
	// Distinct counts the pipeline-distinct items; Duplicates counts the
	// items answered by another item's run.
	Distinct   int `json:"distinct"`
	Duplicates int `json:"duplicates"`
	// DegradedCounts breaks the batch down by ladder rung: how many items
	// (duplicates included) were answered at each non-full-fidelity rung.
	// The batch's flight record carries the worst rung; the full spectrum
	// lives here.
	DegradedCounts map[string]int `json:"degraded_counts,omitempty"`
	// SharedScans / PhysicalScans report the batch's scan share in execute
	// mode: opens answered from an already-materialized pass, and relations
	// physically read (once each).
	SharedScans   int64 `json:"shared_scans,omitempty"`
	PhysicalScans int64 `json:"physical_scans,omitempty"`
}

// rungSeverity orders degradation rungs for the batch's worst-rung
// aggregate; higher is worse. Unknown rungs rank just below unavailable so
// a new rung is never silently treated as full fidelity.
func rungSeverity(rung string) int {
	switch rung {
	case "":
		return 0
	case degradedStaleReplica:
		return 1
	case "stale":
		return 2
	case "heuristic":
		return 3
	case "tight-cmax":
		return 4
	case "unavailable":
		return 6
	default:
		return 5
	}
}

// roleCost orders cache/coalesce roles by the pipeline work they stand
// for; a batch takes its costliest unit's role (see handleBatch).
var roleCost = map[string]int{"hit": 1, "follower": 2, "leader": 3, "solo": 4}

// handleBatch serves POST /personalize/batch — the list-page shape: many
// personalizations in one request. Items become request values and are
// deduplicated by Key, distinct items run concurrently down the same
// pipeline path as /personalize (or /execute), and results come back in
// item order with per-item errors: one malformed or infeasible item fails
// alone. With "execute": true every item also runs its personalized query,
// all items sharing one physical scan per base relation.
//
// Units never write the batch's shared flight record: each runs under a
// private one, and once every unit finished the batch records a role and
// a rung decided from the units' outcomes alone — the worst rung, and the
// costliest role (solo > leader > follower > hit), so the batch reads as
// a cache hit only when every unit was one and as a follower only when no
// unit ran the pipeline itself. The response carries per-rung counts.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Items) == 0 {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("server: batch needs at least one item"))
		return
	}
	if len(req.Items) > s.cfg.BatchMaxItems {
		s.fail(w, http.StatusBadRequest,
			fmt.Errorf("server: batch of %d items exceeds the %d-item cap", len(req.Items), s.cfg.BatchMaxItems))
		return
	}
	rec := obs.RequestFromContext(r.Context())
	lp := startLaps(rec)
	ctx, cancel, tr := s.requestContext(r.Context(), req.TimeoutMS, "batch")
	defer cancel()
	mode, limit := cqp.ModePersonalize, 0
	if req.Execute {
		mode, limit = cqp.ModeExecute, s.rowLimit(req.Limit)
	}
	var share *exec.ScanShare
	if req.Execute && !s.cfg.NoScanShare {
		share = exec.NewScanShare(0)
		ctx = exec.WithScanShare(ctx, share)
	}

	results := make([]batchItemJSON, len(req.Items))
	units := make([]*request, len(req.Items))
	leaderOf := make(map[string]int, len(req.Items))
	followers := make(map[int][]int)
	for i := range req.Items {
		item := &req.Items[i]
		u, err := s.newRequest(r.Context(), item.SQL, &item.Problem, item.request(mode, limit))
		if err != nil {
			results[i] = errorItem(err)
			continue
		}
		if li, ok := leaderOf[u.key]; ok {
			followers[li] = append(followers[li], i)
			continue
		}
		leaderOf[u.key] = i
		u.inBatch, u.trace = true, false
		units[i] = u
	}
	lp.lap(obs.PhaseParse)

	roles := make([]string, len(req.Items))
	rungs := make([]string, len(req.Items))
	var wg sync.WaitGroup
	for i, u := range units {
		if u == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			urec := obs.NewRequest("batch", rec.ID())
			results[i] = s.batchItem(obs.ContextWithRequest(ctx, urec), u)
			snap := urec.Snapshot()
			roles[i], rungs[i] = snap.Role, snap.Rung
		}()
	}
	wg.Wait()

	duplicates := 0
	for li, dups := range followers {
		for _, i := range dups {
			results[i] = results[li]
			results[i].Duplicate = true
			rungs[i] = rungs[li]
			duplicates++
		}
	}
	worst, role := "", ""
	var counts map[string]int
	for i, rung := range rungs {
		if roleCost[roles[i]] > roleCost[role] {
			role = roles[i]
		}
		if rung == "" {
			continue
		}
		if counts == nil {
			counts = make(map[string]int)
		}
		counts[rung]++
		if rungSeverity(rung) > rungSeverity(worst) {
			worst = rung
		}
	}
	rec.SetRole(role)
	rec.SetRung(worst)
	resp := batchResponse{
		Results: results, Distinct: len(leaderOf), Duplicates: duplicates,
		DegradedCounts: counts,
	}
	if share != nil {
		resp.PhysicalScans, resp.SharedScans = share.Stats()
		s.reg.Counter("server_batch_physical_scans_total").Add(resp.PhysicalScans)
		s.reg.Counter("server_batch_shared_scans_total").Add(resp.SharedScans)
	}
	tr.End()
	writeJSON(w, http.StatusOK, resp)
}

// batchItem runs one distinct batch item down the shared pipeline path as
// /personalize or /execute would (sharing their result cache) and shapes
// the item envelope.
func (s *Server) batchItem(ctx context.Context, u *request) batchItemJSON {
	if u.Mode != cqp.ModeExecute {
		pr, err := serve[personalizeResponse](s, ctx, u)
		if err != nil {
			return errorItem(err)
		}
		return batchItemJSON{personalizeResponse: pr}
	}
	er, err := serve[executeResponse](s, ctx, u)
	if err != nil {
		return errorItem(err)
	}
	return batchItemJSON{
		personalizeResponse: &er.personalizeResponse,
		Rows:                er.Rows,
		RowCount:            er.RowCount,
		TotalRows:           er.TotalRows,
		BlockReads:          er.BlockReads,
		ExecMS:              er.ExecMS,
	}
}

// errorItem is a failed item's slot: the error envelope classify gives err.
func errorItem(err error) batchItemJSON {
	_, body := classify(0, err)
	return batchItemJSON{Error: &body}
}

// executeResponseFrom assembles the /execute response shape from a
// personalization and its executed rows, truncated to limit.
func executeResponseFrom(res *cqp.Result, rows *exec.UnionResult, profileID string, version uint64, limit int) *executeResponse {
	er := &executeResponse{
		personalizeResponse: *personalizeResponseFrom(res, profileID, version),
		TotalRows:           len(rows.Rows),
		BlockReads:          rows.BlockReads,
		ExecMS:              float64(rows.Elapsed) / float64(time.Millisecond),
	}
	for i, rr := range rows.Rows {
		if i >= limit {
			break
		}
		er.Rows = append(er.Rows, rowJSON{Values: rowValues(rr.Key), Doi: rr.Doi, Matched: len(rr.Matched)})
	}
	er.RowCount = len(er.Rows)
	return er
}
