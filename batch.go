package cqp

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"cqp/internal/exec"
)

// BatchItem is one personalization request in a PersonalizeBatch call.
type BatchItem struct {
	Query   *Query
	Profile *Profile
	Problem Problem
	Opts    []Option
}

// BatchResult is the outcome of one BatchItem, aligned by index with the
// input slice. Exactly one of Result and Err is set.
type BatchResult struct {
	Result *Result
	Err    error
	// Exec holds the executed personalized query's ranked answer when the
	// batch ran through ExecuteBatch; nil under PersonalizeBatch.
	Exec *exec.UnionResult
	// Duplicate reports that this item was coalesced with an earlier
	// identical item: its Result/Err are shared with that item's, and no
	// extra pipeline run was spent on it.
	Duplicate bool
}

// dedupBatch partitions items into leaders (first item per Request.Key)
// and followers, recording input errors for invalid items. mode is the
// batch's last stage, so an executed batch never shares identity with a
// personalize-only one. Profile text is rendered once per distinct
// *Profile — a batch fanning one profile across many queries used to
// re-render it per item.
func dedupBatch(items []BatchItem, mode Mode, out []BatchResult) (leaders []int, followers map[int][]int) {
	leaders = make([]int, 0, len(items))
	leaderOf := make(map[string]int, len(items))
	followers = make(map[int][]int)
	profText := make(map[*Profile]string)
	for i, it := range items {
		if it.Query == nil || it.Profile == nil {
			out[i].Err = fmt.Errorf("cqp: batch item %d: query and profile are required", i)
			continue
		}
		text, ok := profText[it.Profile]
		if !ok {
			text = it.Profile.String()
			profText[it.Profile] = text
		}
		req := Request{Mode: mode, Query: it.Query, ProfileText: text, Problem: it.Problem, Opts: it.Opts}
		key := req.Key()
		if li, ok := leaderOf[key]; ok {
			followers[li] = append(followers[li], i)
			continue
		}
		leaderOf[key] = i
		leaders = append(leaders, i)
	}
	return leaders, followers
}

// runBatch drives run over the leader indices across a bounded worker
// group, then copies leader outcomes onto followers.
func runBatch(leaders []int, followers map[int][]int, out []BatchResult, parallelism int, run func(i int)) {
	workers := parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(leaders) {
		workers = len(leaders)
	}
	if workers <= 1 {
		for _, i := range leaders {
			run(i)
		}
	} else {
		work := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range work {
					run(i)
				}
			}()
		}
		for _, i := range leaders {
			work <- i
		}
		close(work)
		wg.Wait()
	}
	for li, dups := range followers {
		for _, i := range dups {
			out[i] = out[li]
			out[i].Duplicate = true
		}
	}
}

// PersonalizeBatch personalizes many (query, profile, problem) items in one
// call — the serving shape of a list page, where one screen fans into many
// closely related personalizations. Items are deduplicated by Request.Key
// (query + profile + problem + resolved options) so each distinct pipeline
// runs once, distinct items run across a bounded worker group (parallelism ≤ 0
// selects GOMAXPROCS), and results come back in input order, one per item,
// with per-item errors: a malformed item fails alone without poisoning its
// batch. Distinct items also share work below the dedup layer: every
// per-preference cost/shrink estimate lands in the estimator's
// cross-request memo, so items over the same relations re-estimate nothing.
// A canceled ctx aborts the underlying personalizations with its error.
func (p *Personalizer) PersonalizeBatch(ctx context.Context, items []BatchItem, parallelism int) []BatchResult {
	out := make([]BatchResult, len(items))
	leaders, followers := dedupBatch(items, ModePersonalize, out)
	runBatch(leaders, followers, out, parallelism, func(i int) {
		it := items[i]
		out[i].Result, out[i].Err = p.PersonalizeContext(ctx, it.Query, it.Profile, it.Problem, it.Opts...)
	})
	return out
}

// ExecuteBatch is PersonalizeBatch plus execution: each distinct item's
// personalized query runs against the database and BatchResult.Exec holds
// its ranked answer. All items execute under one scan share — one physical
// pass per base relation feeds every item's (and every sub-query's) filter
// tree, while each item is still charged the cost model's full per-open
// block count — so a batch of distinct items over the same tables reads
// each table once instead of items × sub-queries times. The share is valid
// because the batch runs inside one statistics generation: the storage
// contract keeps tables immutable while cursors are open, so no MVCC is
// needed. shareBytes caps the per-relation materialization (≤ 0 selects
// exec.DefaultShareBytes); oversized relations fall back to private
// streaming scans.
func (p *Personalizer) ExecuteBatch(ctx context.Context, items []BatchItem, parallelism int, shareBytes int64) []BatchResult {
	out := make([]BatchResult, len(items))
	leaders, followers := dedupBatch(items, ModeExecute, out)
	ctx = exec.WithScanShare(ctx, exec.NewScanShare(shareBytes))
	runBatch(leaders, followers, out, parallelism, func(i int) {
		it := items[i]
		res, err := p.PersonalizeContext(ctx, it.Query, it.Profile, it.Problem, it.Opts...)
		if err != nil {
			out[i].Err = err
			return
		}
		rows, err := res.ExecuteContext(ctx)
		if err != nil {
			out[i].Err = err
			return
		}
		out[i].Result, out[i].Exec = res, rows
	})
	return out
}
