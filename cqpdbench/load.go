package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one timed request.
type sample struct {
	Endpoint string
	Latency  time.Duration // open loop: from when it was due; closed loop: from send
	Lag      time.Duration // open loop: how late it was sent
	Sent     time.Time
	OK       bool
	Slice    int // the slice of the measured run it was sent in
}

// checker judges every answer: a non-2xx reply, a transport error, a
// degraded or stale_replica answer, or a sampled answer that differs from
// its in-process reference is a failure.
type checker struct {
	refs map[string]answer // request Desc → reference answer

	mu       sync.Mutex
	compared int
	failures []string
	// acked holds the latest acked PUT per profile ID.
	acked map[string]ackedPut
}

type ackedPut struct {
	version uint64
	text    string
}

func newChecker(refs map[string]answer) *checker {
	return &checker{refs: refs, acked: map[string]ackedPut{}}
}

func (c *checker) fail(req request, format string, args ...any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.failures) < 8 {
		c.failures = append(c.failures, fmt.Sprintf("request %d %s: ", req.Index, req.Path)+fmt.Sprintf(format, args...))
	}
	return false
}

// check reports whether one reply counts as a success.
func (c *checker) check(req request, code int, body []byte, err error) bool {
	if err != nil {
		return c.fail(req, "transport: %v", err)
	}
	if code < 200 || code > 299 {
		return c.fail(req, "status %d: %.200s", code, body)
	}
	if req.Endpoint == epProfilePut {
		var r profileResp
		if err := json.Unmarshal(body, &r); err != nil {
			return c.fail(req, "decode: %v", err)
		}
		if r.StaleReplica {
			return c.fail(req, "stale_replica answer")
		}
		id := strings.TrimPrefix(req.Path, "/profiles/")
		c.mu.Lock()
		if r.Version > c.acked[id].version {
			c.acked[id] = ackedPut{version: r.Version, text: string(req.Body)}
		}
		c.mu.Unlock()
		return true
	}
	var r pipelineResp
	if err := json.Unmarshal(body, &r); err != nil {
		return c.fail(req, "decode: %v", err)
	}
	if r.Degraded != "" {
		return c.fail(req, "degraded answer %q", r.Degraded)
	}
	for _, it := range r.Results {
		if it.Error != nil {
			return c.fail(req, "batch item error %s: %s", it.Error.Class, it.Error.Message)
		}
		if it.Degraded != "" {
			return c.fail(req, "batch item degraded %q", it.Degraded)
		}
	}
	ref, ok := c.refs[req.Desc]
	if !ok {
		return true
	}
	c.mu.Lock()
	c.compared++
	c.mu.Unlock()
	if got := answerFrom(req.Endpoint, &r); !sameAnswer(got, ref) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(ref)
		return c.fail(req, "answer differs from reference:\n got %.400s\nwant %.400s", g, w)
	}
	return true
}

// loader sends generated requests to one daemon over at most conns
// connections.
type loader struct {
	d     *daemon
	g     *generator
	chk   *checker
	conns int
}

func (dr *loader) send(req request) (ok bool, sent, done time.Time) {
	sent = time.Now()
	code, body, err := dr.d.do(context.Background(), req.Method, req.Path, req.Body)
	done = time.Now()
	return dr.chk.check(req, code, body, err), sent, done
}

// openResult is the outcome of the open-loop phase.
type openResult struct {
	Samples []sample
	// Backlog counts requests that were due before the phase ended but
	// had not been sent when it did.
	Backlog int
}

// openLoop sends reqs on a fixed schedule, one every 1/rate seconds. A
// request whose due time finds every connection busy waits for one, and
// that wait counts in its latency, which runs from when it was due.
func (dr *loader) openLoop(reqs []request, rate float64) openResult {
	interval := time.Duration(float64(time.Second) / rate)
	t0 := time.Now().Add(20 * time.Millisecond)
	end := t0.Add(time.Duration(len(reqs)) * interval)
	samples := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < dr.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := t0.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				ok, sent, done := dr.send(reqs[i])
				samples[i] = sample{Endpoint: reqs[i].Endpoint, Latency: done.Sub(due),
					Lag: sent.Sub(due), Sent: sent, OK: ok}
			}
		}()
	}
	wg.Wait()
	res := openResult{Samples: samples}
	for _, s := range samples {
		if s.Sent.After(end) {
			res.Backlog++
		}
	}
	return res
}

// closedLoop runs conns clients that each send their next request as soon
// as the previous one is answered, until dur has passed. Request indices
// continue from first.
func (dr *loader) closedLoop(first int, dur time.Duration, gen func(int) request) ([]sample, time.Duration) {
	start := time.Now()
	stop := start.Add(dur)
	var next atomic.Int64
	next.Store(int64(first))
	var mu sync.Mutex
	var all []sample
	var wg sync.WaitGroup
	for w := 0; w < dr.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for time.Now().Before(stop) {
				req := gen(int(next.Add(1) - 1))
				ok, sent, done := dr.send(req)
				mine = append(mine, sample{Endpoint: req.Endpoint, Latency: done.Sub(sent), Sent: sent, OK: ok})
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all, time.Since(start)
}

// warm sends the first n warm-up requests over conns connections and
// fails when any answer fails its check.
func (dr *loader) warm(n int) error {
	var next atomic.Int64
	var failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < dr.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if ok, _, _ := dr.send(dr.g.warmup(i)); !ok {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if f := failed.Load(); f > 0 {
		return fmt.Errorf("%d of %d warm-up requests failed: %v", f, n, dr.chk.failures)
	}
	return nil
}

// putAll stores every profile text under its ID over conns connections.
func (dr *loader) putAll(texts []string) error {
	var next atomic.Int64
	errc := make(chan error, dr.conns)
	for w := 0; w < dr.conns; w++ {
		go func() {
			for {
				i := int(next.Add(1) - 1)
				if i >= len(texts) {
					errc <- nil
					return
				}
				code, body, err := dr.d.do(context.Background(), "PUT", "/profiles/"+profileID(i), []byte(texts[i]))
				if err == nil && code != http.StatusOK {
					err = fmt.Errorf("PUT %s: status %d: %.200s", profileID(i), code, body)
				}
				if err != nil {
					next.Store(int64(len(texts)))
					errc <- err
					return
				}
			}
		}()
	}
	var first error
	for w := 0; w < dr.conns; w++ {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// verifyAcked checks that GET /profiles/{id} returns the last acked text of
// every profile the run wrote, and returns the mismatches.
func (dr *loader) verifyAcked() []string {
	var bad []string
	for id, a := range dr.chk.acked {
		code, body, err := dr.d.do(context.Background(), "GET", "/profiles/"+id, nil)
		var r profileResp
		if err == nil && code == http.StatusOK {
			err = json.Unmarshal(body, &r)
		}
		switch {
		case err != nil || code != http.StatusOK:
			bad = append(bad, fmt.Sprintf("GET %s: status %d, %v", id, code, err))
		case r.Text != a.text || r.Version != a.version:
			bad = append(bad, fmt.Sprintf("GET %s: version %d, want last acked %d (text equal: %v)",
				id, r.Version, a.version, r.Text == a.text))
		}
	}
	return bad
}
