package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// conns is the number of load connections and load goroutines: the
// host has two CPUs, and the server under test shares them.
const conns = 2

// loadClient posts prepared bodies to one server over at most conns
// keep-alive connections.
type loadClient struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

// corruptReply, when set, alters each parsed /classify/batch reply
// before it is recorded; the tests set it to inject wrong labels.
var corruptReply func(seq int64, labels []byte)

func newLoadClient(base string) *loadClient {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &loadClient{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *loadClient) close() { c.tr.CloseIdleConnections() }

// do sends one request and reads the whole reply into buf.
func (c *loadClient) do(method, path string, body []byte, buf *bytes.Buffer) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, fmt.Errorf("reading %s reply: %w", path, err)
	}
	return resp.StatusCode, nil
}

// parseBatchReply reads {"labels":[...],"version":V} without
// reflection, appending the labels to dst.
func parseBatchReply(b []byte, dst []byte) ([]byte, int64, error) {
	const lk, vk = `"labels":[`, `"version":`
	i := bytes.Index(b, []byte(lk))
	if i < 0 {
		return dst, 0, errors.New("reply has no labels")
	}
	for i += len(lk); i < len(b) && b[i] != ']'; i++ {
		switch b[i] {
		case '0', '1':
			dst = append(dst, b[i]-'0')
		case ',':
		default:
			return dst, 0, fmt.Errorf("bad label byte %q", b[i])
		}
	}
	j := bytes.Index(b, []byte(vk))
	if j < 0 {
		return dst, 0, errors.New("reply has no version")
	}
	j += len(vk)
	k := j
	for k < len(b) && b[k] >= '0' && b[k] <= '9' {
		k++
	}
	v, err := strconv.ParseInt(string(b[j:k]), 10, 64)
	return dst, v, err
}

// job is one scheduled open-loop request; at is its offset from the
// start of the schedule.
type job struct {
	learn bool
	idx   int
	at    time.Duration
}

// openLoop sends jobs (sorted by at, offsets from start) on their
// schedule, whatever the server's pace. conns workers take the jobs in
// order; each sleeps until its job is due and then runs exec, so a job
// whose worker is still busy waits, and its latency, counted from the
// due time, includes that wait. Jobs no worker has started by the
// schedule's end plus grace are returned unsent. late holds, for each
// job whose worker was idle and slept until it was due, how far past
// the due time the worker woke, in ms: the generator's own lag.
func openLoop(start time.Time, jobs []job, grace time.Duration, exec func(j job, due time.Time)) (unsent []job, late []float64) {
	if len(jobs) == 0 {
		return nil, nil
	}
	stop := start.Add(jobs[len(jobs)-1].at + grace)
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(jobs) {
					return
				}
				due := start.Add(jobs[k].at)
				d := time.Until(due)
				if d > 0 {
					time.Sleep(d)
				}
				now := time.Now()
				mu.Lock()
				if now.After(stop) {
					unsent = append(unsent, jobs[k])
					mu.Unlock()
					continue
				}
				if d > 0 {
					late = append(late, ms(now.Sub(due)))
				}
				mu.Unlock()
				exec(jobs[k], due)
			}
		}()
	}
	wg.Wait()
	return unsent, late
}

// closedLoop runs conns workers, each sending its next request as soon
// as the previous reply is in, until d has passed.
func closedLoop(d time.Duration, exec func(worker int)) time.Duration {
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(end) {
				exec(w)
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}
