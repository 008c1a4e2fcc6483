package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running cqpd process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	client *http.Client
	log    *os.File
	done   chan struct{}
	err    error // exit error, valid once done is closed
	once   sync.Once
}

// newClient returns an HTTP client holding at most conns connections to
// the daemon.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		},
		Timeout: 60 * time.Second,
	}
}

// startDaemon launches cqpd on a free loopback port over the generated
// CSVs and waits until /healthz answers 200.
func startDaemon(bin, csvDir, dataDir, fsync, logPath string, conns int) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0", "-csv", csvDir}
	if dataDir != "" {
		args = append(args, "-data", dataDir, "-fsync", fsync)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addrc := make(chan string, 1)
	cmd := exec.Command(bin, args...)
	// cqpd must not outlive the benchmark, even one killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = logf
	cmd.Stdout = &addrWatcher{w: logf, addrc: addrc}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start cqpd: %w", err)
	}
	d := &daemon{cmd: cmd, client: newClient(conns), log: logf, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	select {
	case a := <-addrc:
		d.base = "http://" + a
	case <-d.done:
		logf.Close()
		return nil, fmt.Errorf("cqpd exited before serving: %v (log %s)", d.err, logPath)
	case <-time.After(120 * time.Second):
		d.stop()
		return nil, fmt.Errorf("cqpd did not start serving within 120s (log %s)", logPath)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, _, err := d.do(context.Background(), "GET", "/healthz", nil)
		if err == nil && code == http.StatusOK {
			return d, nil
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("cqpd not healthy within 60s: code %d, %v", code, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// do sends one request and returns the status code and body.
func (d *daemon) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// stop drains cqpd with SIGTERM (SIGKILL after 20s) and waits for it to
// exit.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	d.once.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(20 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.done
		}
		d.client.CloseIdleConnections()
		d.log.Close()
	})
}

// scrapeSet is one scrape of cqpd's /metrics: series name (with labels) →
// value.
type scrapeSet map[string]float64

func (d *daemon) scrape() (scrapeSet, error) {
	code, body, err := d.do(context.Background(), "GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", code)
	}
	return parseMetrics(body), nil
}

func parseMetrics(body []byte) scrapeSet {
	m := scrapeSet{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m
}

// sum adds every series of the family whose labels contain all of the
// given label pairs.
func (m scrapeSet) sum(family string, labels ...string) float64 {
	t := 0.0
	for k, v := range m {
		name, lbl, _ := strings.Cut(k, "{")
		if name != family {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(lbl, l) {
				ok = false
				break
			}
		}
		if ok {
			t += v
		}
	}
	return t
}

// delta returns after − before for every series.
func (m scrapeSet) delta(before scrapeSet) scrapeSet {
	out := scrapeSet{}
	for k, v := range m {
		out[k] = v - before[k]
	}
	return out
}

// histQuantile estimates quantile p of a histogram family (summed over
// series matching labels) by linear interpolation inside the bucket, as
// cqpd's own /slo does.
func (m scrapeSet) histQuantile(family string, p float64, labels ...string) (q float64, count float64) {
	buckets := map[float64]float64{}
	for k, v := range m {
		name, lbl, _ := strings.Cut(k, "{")
		if name != family+"_bucket" {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(lbl, l) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		_, le, _ := strings.Cut(lbl, `le="`)
		le, _, _ = strings.Cut(le, `"`)
		bound := inf
		if le != "+Inf" {
			bound, _ = strconv.ParseFloat(le, 64)
		}
		buckets[bound] += v
	}
	bounds := make([]float64, 0, len(buckets))
	for b := range buckets {
		bounds = append(bounds, b)
	}
	sortFloats(bounds)
	if len(bounds) == 0 {
		return 0, 0
	}
	total := buckets[bounds[len(bounds)-1]]
	if total == 0 {
		return 0, 0
	}
	rank := p * total
	prevBound, prevCum := 0.0, 0.0
	for _, b := range bounds {
		cum := buckets[b]
		if cum >= rank && cum > prevCum {
			if b == inf {
				return prevBound, total
			}
			return prevBound + (b-prevBound)*(rank-prevCum)/(cum-prevCum), total
		}
		prevBound, prevCum = b, cum
	}
	return prevBound, total
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// addrWatcher copies cqpd's stdout to the log and reports the listen
// address from its "serving on" line.
type addrWatcher struct {
	w     io.Writer
	addrc chan string
	buf   []byte
}

func (a *addrWatcher) Write(p []byte) (int, error) {
	a.buf = append(a.buf, p...)
	for {
		i := bytes.IndexByte(a.buf, '\n')
		if i < 0 {
			break
		}
		if addr, ok := strings.CutPrefix(string(a.buf[:i]), "cqpd: serving on "); ok {
			select {
			case a.addrc <- addr:
			default:
			}
		}
		a.buf = a.buf[i+1:]
	}
	return a.w.Write(p)
}
