package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"monoclass/internal/classifier"
	"monoclass/internal/geom"
	"monoclass/internal/online"
	"monoclass/internal/serve"
)

const (
	serveDim    = 3
	serveNoise  = 0.05
	probeCount  = 64
	rebuildEach = 64 // online.Config's default RebuildEvery, which the server uses
)

// recorder is the audit gate chained after SpotAudit. It always accepts
// and keeps every candidate it sees; since it runs last, every candidate
// it sees is promoted, and versions are strictly sequential, so
// models[v-1] is the model the registry served as version v.
type recorder struct {
	mu     sync.Mutex
	models []*classifier.AnchorSet
}

func (r *recorder) audit(_, next *classifier.AnchorSet) error {
	r.mu.Lock()
	r.models = append(r.models, next)
	r.mu.Unlock()
	return nil
}

func (r *recorder) model(v int64) *classifier.AnchorSet {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v < 1 || v > int64(len(r.models)) {
		return nil
	}
	return r.models[v-1]
}

// served is one set-up: a trained model behind an in-process
// serve.Server listening on loopback.
type served struct {
	srv       *serve.Server
	cl        *loadClient
	rec       *recorder
	t         trained
	trainDur  time.Duration // Prepare + Solve
	published time.Duration // until NewServer returned: the model is live
	setup     time.Duration // until the first /healthz answered
}

// setUp trains on ws, builds the server (with the online learner when
// learn is set), listens, and waits for the first /healthz.
func setUp(ws geom.WeightedSet, probes []geom.Point, learn bool, tr *tracer, rep int) (*served, error) {
	root := tr.begin("setup", 0, int64(rep))
	defer root.end()
	t0 := time.Now()
	t, err := train(ws, tr, root.id)
	if err != nil {
		return nil, err
	}
	rec := &recorder{models: []*classifier.AnchorSet{t.sol.Classifier}}
	st := t.prob.Stats()
	cfg := serve.Config{Audit: serve.ChainAudits(serve.SpotAudit(probes), rec.audit), Prepare: &st}
	if learn {
		cfg.Online = &serve.OnlineConfig{Initial: ws}
	}
	ns := tr.begin("serve.NewServer", root.id, 0)
	srv, err := serve.NewServer(t.sol.Classifier, cfg)
	ns.end()
	if err != nil {
		return nil, fmt.Errorf("new server: %w", err)
	}
	published := time.Since(t0)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		srv.Close() // the listen failure is the error to report
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &served{srv: srv, cl: newLoadClient("http://" + addr.String()), rec: rec, t: t, trainDur: t.dur, published: published}
	var buf bytes.Buffer
	if code, err := s.cl.do("GET", "/healthz", nil, &buf); err != nil || code != 200 {
		s.shutdown() // the healthz failure is the error to report
		return nil, fmt.Errorf("healthz: status %d, %v", code, err)
	}
	s.setup = time.Since(t0)
	return s, nil
}

func (s *served) shutdown() error {
	s.cl.close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

func (s *served) stats() (serve.StatsSnapshot, error) {
	var buf bytes.Buffer
	var st serve.StatsSnapshot
	code, err := s.cl.do("GET", "/stats", nil, &buf)
	if err == nil && code != 200 {
		err = fmt.Errorf("status %d", code)
	}
	if err == nil {
		err = json.Unmarshal(buf.Bytes(), &st)
	}
	return st, err
}

// setupSets is how many more training sets of the served set's shape
// the repeated set-ups cycle through. The train time of one set of 4096
// points depends on the draw (±12% between seeds at equal host speed),
// so medians over one set would report the seed as much as the program.
const setupSets = 7

// serveInputs are the generated inputs of both serve workloads.
type serveInputs struct {
	ws      geom.WeightedSet   // the served model's training set
	others  []geom.WeightedSet // set-ups before the last one train on these in turn
	probes  []geom.Point
	queries [][]geom.Point // one slice of points per body
	bodies  [][]byte
}

func genServe(sz sizes, seed int64) serveInputs {
	in := serveInputs{
		ws:     plantedSet(rngFor(seed, streamTrain), sz.ServeN, serveDim, serveNoise),
		probes: uniformPoints(rngFor(seed, streamProbes), probeCount, serveDim),
	}
	rng := rngFor(seed, streamSetups)
	for i := 0; i < setupSets; i++ {
		in.others = append(in.others, plantedSet(rng, sz.ServeN, serveDim, serveNoise))
	}
	pts := uniformPoints(rngFor(seed, streamQueries), sz.Bodies*sz.Body, serveDim)
	for b := 0; b < sz.Bodies; b++ {
		q := pts[b*sz.Body : (b+1)*sz.Body]
		in.queries = append(in.queries, q)
		in.bodies = append(in.bodies, classifyBody(q))
	}
	return in
}

// setupTimes collects the figures of every set-up of a run.
type setupTimes struct {
	setupS, trainS, publishMS []float64
}

// repeat sets up again and again for d (at least minSetups times),
// cycling through the training sets and shutting each server down. With
// keep it then sets up once more on the served set and returns that
// server running. A set-up is a train of a few hundred ms and the
// host's speed wanders over seconds, so a run sets up for several
// seconds, half before its timed phase and half after, rather than in
// one burst.
func (st *setupTimes) repeat(o *outcome, in serveInputs, d time.Duration, learn, keep bool, tr *tracer) *served {
	sets := append([]geom.WeightedSet{in.ws}, in.others...)
	end := time.Now().Add(d)
	for i := 1; ; i++ {
		last := i > minSetups && !time.Now().Before(end)
		if last && !keep {
			return nil
		}
		rep := len(st.setupS) + 1
		ws := sets[rep%len(sets)]
		if last {
			ws = in.ws
		}
		runtime.GC() // each set-up starts from a collected heap
		s, err := setUp(ws, in.probes, learn, tr, rep)
		o.attempted++
		if err != nil {
			o.failed++
			o.check(false, "set-up %d: %v", rep, err)
			return nil
		}
		checkTrained(o, ws, s.t, fmt.Sprintf("set-up %d", rep))
		st.setupS = append(st.setupS, s.setup.Seconds())
		st.trainS = append(st.trainS, s.trainDur.Seconds())
		st.publishMS = append(st.publishMS, ms(s.published))
		if last {
			return s
		}
		o.check(s.shutdown() == nil, "set-up %d: shutdown failed", rep)
	}
}

// reply is one recorded /classify/batch answer.
type reply struct {
	body    int
	version int64
	labels  []byte
	ok      bool      // answered 200 with labels; after checking, also right
	due     time.Time // the schedule's due time (open loop) or the send (closed loop)
	done    time.Time
}

// classifyRun sends /classify/batch requests and keeps what the checks
// and metrics need.
type classifyRun struct {
	s       *served
	in      serveInputs
	tr      *tracer
	seq     atomic.Int64
	mu      sync.Mutex
	replies []reply
	// traced runs only: kernel replay time, HTTP round trips, points
	kernelNS, httpNS, tracedPts atomic.Int64
}

// send posts body b and records the reply.
func (c *classifyRun) send(b int, due time.Time, buf *bytes.Buffer) {
	seq := c.seq.Add(1)
	sp := c.tr.begin("client.request", 0, seq)
	hs := c.tr.begin("serve.http", sp.id, seq)
	code, err := c.s.cl.do("POST", "/classify/batch", c.in.bodies[b], buf)
	httpDur := hs.end()
	r := reply{body: b, due: due}
	if err == nil && code == 200 {
		r.labels, r.version, err = parseBatchReply(buf.Bytes(), make([]byte, 0, len(c.in.queries[b])))
		r.ok = err == nil
	}
	r.done = time.Now()
	if r.ok && corruptReply != nil {
		corruptReply(seq, r.labels)
	}
	if c.tr != nil && r.ok {
		// The kernel runs inside the server; replaying it on the same
		// points against the same model version times it from here.
		if m := c.s.rec.model(r.version); m != nil {
			dst := make([]geom.Label, len(c.in.queries[b]))
			ks := c.tr.begin("classidx.kernel", sp.id, seq)
			m.ClassifyBatchInto(dst, c.in.queries[b])
			k := ks.end()
			c.kernelNS.Add(k.Nanoseconds())
			c.httpNS.Add(httpDur.Nanoseconds())
			c.tracedPts.Add(int64(len(dst)))
		}
	}
	sp.end()
	c.mu.Lock()
	c.replies = append(c.replies, r)
	c.mu.Unlock()
}

// take returns the replies recorded since the last take.
func (c *classifyRun) take() []reply {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.replies
	c.replies = nil
	return out
}

// checkReplies compares every reply with ClassifyScalar under the model
// version it reports, clearing ok on a wrong answer and counting
// attempts and failures in o.
func checkReplies(o *outcome, rs []reply, in serveInputs, rec *recorder, memo map[[2]int64][]byte) {
	wrong := 0
	for i := range rs {
		r := &rs[i]
		o.attempted++
		if r.ok && !bytes.Equal(r.labels, expected(memo, rec, in.queries, r.version, r.body)) {
			r.ok = false
			if wrong++; wrong == 1 {
				o.check(false, "body %d at version %d: labels differ from ClassifyScalar", r.body, r.version)
			}
		}
		if !r.ok {
			o.failed++
		}
	}
	o.check(wrong <= 1, "%d replies in all had wrong labels", wrong)
}

// latencies summarizes open-loop latency in ms, each figure the median
// over windows of width w (by due time) of that figure in each window.
// A failed request counts at the limit.
type latencies struct{ p50, mean, p90, p99 float64 }

func latencyStats(segs []segment, w time.Duration, limitMS float64) latencies {
	var p50, means, p90, p99 []float64
	for _, sg := range segs {
		rs := sg.rs
		for _, idx := range windows(len(rs), w, func(i int) time.Duration { return rs[i].due.Sub(sg.t0) }) {
			if len(idx) == 0 {
				continue
			}
			lat := make([]float64, len(idx))
			sum := 0.0
			for k, i := range idx {
				lat[k] = ms(rs[i].done.Sub(rs[i].due))
				if !rs[i].ok {
					lat[k] = max(lat[k], limitMS)
				}
				sum += lat[k]
			}
			p50 = append(p50, quantile(lat, 0.5))
			means = append(means, sum/float64(len(lat)))
			p90 = append(p90, quantile(lat, 0.9))
			p99 = append(p99, quantile(lat, 0.99))
		}
	}
	return latencies{p50: median(p50), mean: median(means), p90: median(p90), p99: median(p99)}
}

// segment is the replies of one stretch of load that started at t0;
// windows never span two segments.
type segment struct {
	rs []reply
	t0 time.Time
}

// goodput is the median over windows (by completion) of the points
// answered correctly per second.
func goodput(segs []segment) float64 {
	var rates []float64
	for _, sg := range segs {
		rs := sg.rs
		for _, idx := range windows(len(rs), window, func(i int) time.Duration { return rs[i].done.Sub(sg.t0) }) {
			ws := make([]reply, len(idx))
			for k, i := range idx {
				ws[k] = rs[i]
			}
			rates = append(rates, float64(goodPoints(ws))/window.Seconds())
		}
	}
	return median(rates)
}

func goodPoints(rs []reply) int {
	n := 0
	for _, r := range rs {
		if r.ok {
			n += len(r.labels)
		}
	}
	return n
}

func lastDone(rs []reply) time.Time {
	var t time.Time
	for _, r := range rs {
		if r.done.After(t) {
			t = r.done
		}
	}
	return t
}

// unsentReplies turns jobs the open loop never sent into failed replies.
func unsentReplies(unsent []job, start, end time.Time, bodies int) []reply {
	var rs []reply
	for _, j := range unsent {
		if !j.learn {
			rs = append(rs, reply{body: j.idx % bodies, due: start.Add(j.at), done: end})
		}
	}
	return rs
}

// expected is the reference labelling of body b under model version v,
// from the literal anchor scan; nil when no such version was promoted.
func expected(memo map[[2]int64][]byte, rec *recorder, queries [][]geom.Point, v int64, b int) []byte {
	key := [2]int64{v, int64(b)}
	if want, ok := memo[key]; ok {
		return want
	}
	m := rec.model(v)
	if m == nil {
		return nil
	}
	want := make([]byte, len(queries[b]))
	for i, p := range queries[b] {
		want[i] = byte(m.ClassifyScalar(p))
	}
	memo[key] = want
	return want
}

func serveOnly(sz sizes, seed int64, seconds float64, tr *tracer) *outcome {
	o := newOutcome()
	in := genServe(sz, seed)
	var setups setupTimes
	halfSetup := secondsDur(sz.SetupS / 2)
	s := setups.repeat(o, in, halfSetup, false, true, tr)
	if s == nil {
		return o
	}
	memo := map[[2]int64][]byte{}
	for b := range in.bodies {
		expected(memo, s.rec, in.queries, 1, b)
	}
	before, err := s.stats()
	o.check(err == nil, "/stats: %v", err)

	// The timed phase alternates closed-loop and open-loop blocks, so
	// that each loop's figures come from the whole run rather than from
	// one half of it: the host's speed wanders over seconds.
	run := &classifyRun{s: s, in: in, tr: tr}
	block := min(serveBlock, secondsDur(seconds/2))
	rounds := max(1, int(secondsDur(seconds)/(2*block)))
	bufs := [conns]bytes.Buffer{}
	bufPool := sync.Pool{New: func() any { return new(bytes.Buffer) }}
	var next atomic.Int64
	var closed, opened []segment
	var late []float64
	peakHeap := 0.0
	for r := 0; r < rounds; r++ {
		closedStart := time.Now()
		closedLoop(block, func(w int) {
			b := int(next.Add(1)-1) % len(in.bodies)
			run.send(b, time.Now(), &bufs[w])
		})
		closed = append(closed, segment{run.take(), closedStart})
		// The heap is sampled at the fixed offered rate only, as on
		// serve-learn: in the closed loop it follows the throughput.
		heap := startHeapSampler(2 * time.Millisecond)
		openStart := time.Now()
		unsent, lt := openLoop(openStart, classifyJobs(sz.Rate, block), secondsDur(sz.GraceS), func(j job, due time.Time) {
			buf := bufPool.Get().(*bytes.Buffer)
			run.send(j.idx%len(in.bodies), due, buf)
			bufPool.Put(buf)
		})
		opened = append(opened, segment{append(run.take(), unsentReplies(unsent, openStart, time.Now(), len(in.bodies))...), openStart})
		heap.stopSampling()
		peakHeap = max(peakHeap, heap.peakMiB())
		late = append(late, lt...)
	}
	after, err := s.stats()
	o.check(err == nil, "/stats: %v", err)
	o.check(s.shutdown() == nil, "shutdown failed")
	setups.repeat(o, in, halfSetup, false, false, tr)

	for _, sg := range append(closed, opened...) {
		checkReplies(o, sg.rs, in, s.rec, memo)
	}
	o.check(after.Swaps == before.Swaps, "model swapped during serve: %d swaps", after.Swaps-before.Swaps)

	lat := latencyStats(opened, window, sz.LimitMS)
	o.setE2E(tr, "setup_s", median(setups.setupS))
	o.setE2E(tr, "train_s", median(setups.trainS))
	o.setE2E(tr, "peak_heap_mb", peakHeap)
	o.setE2E(tr, "classify_pts_per_s", goodput(closed))
	o.setE2E(tr, "classify_p50_ms", lat.p50)
	o.layer["client.mean_ms"] = lat.mean
	o.layer["client.p90_ms"] = lat.p90
	o.layer["client.p99_ms"] = lat.p99
	// The served model is batch-trained: data reaches it when the
	// trained model is published.
	o.setE2E(tr, "learn_fresh_p50_ms", quantile(setups.publishMS, 0.5))
	o.setE2E(tr, "learn_fresh_p90_ms", quantile(setups.publishMS, 0.9))
	if tr != nil {
		serveLayers(o, tr, s, run, before, after, late)
	}
	return o
}

// serveBlock is the length of each closed-loop and open-loop block of
// the serve workload: whole windows, and short enough that a 20-s run
// alternates five times.
const serveBlock = 2 * time.Second

// classifyJobs schedules rate requests per second for d.
func classifyJobs(rate float64, d time.Duration) []job {
	n := int(rate * d.Seconds())
	jobs := make([]job, n)
	for k := range jobs {
		jobs[k] = job{idx: k, at: time.Duration(float64(k) / rate * float64(time.Second))}
	}
	return jobs
}

// serveLayers fills the layer metrics shared by both serve workloads.
func serveLayers(o *outcome, tr *tracer, s *served, run *classifyRun, before, after serve.StatsSnapshot, late []float64) {
	trainLayers(o, tr, summarizeTrain(s.t))
	if p := run.tracedPts.Load(); p > 0 {
		o.layer["classidx.kernel_ns_per_pt"] = float64(run.kernelNS.Load()) / float64(p)
		o.layer["serve.http_ns_per_pt"] = float64(run.httpNS.Load()-run.kernelNS.Load()) / float64(p)
	}
	o.layer["serve.rejected"] = float64(after.Rejected - before.Rejected)
	o.layer["serve.bad_requests"] = float64(after.BadRequests - before.BadRequests)
	o.layer["serve.swaps"] = float64(after.Swaps - before.Swaps)
	o.layer["serve.audit_rejects"] = float64(after.AuditRejects - before.AuditRejects)
	o.layer["client.late_ms"] = quantile(late, 0.99)
}

func serveLearn(sz sizes, seed int64, seconds float64, tr *tracer) *outcome {
	o := newOutcome()
	in := genServe(sz, seed)
	// Whole rebuild cycles, so every batch sent is covered by an exact
	// solve before the schedule ends.
	cycle := rebuildEach / sz.LearnBatch
	nLearn := int(seconds*sz.LearnRate) / cycle * cycle
	trace := deltaTrace(rngFor(seed, streamInserts), in.ws, nLearn, sz.LearnBatch, serveNoise)
	learnBodies := make([][]byte, len(trace))
	for i, ds := range trace {
		learnBodies[i] = learnBody(ds)
	}

	var setups setupTimes
	halfSetup := secondsDur(sz.LearnSetup / 2)
	s := setups.repeat(o, in, halfSetup, true, true, tr)
	if s == nil {
		return o
	}
	memo := map[[2]int64][]byte{}
	for b := range in.bodies {
		expected(memo, s.rec, in.queries, 1, b)
	}
	u := s.srv.Learner().Updater()
	before, err := s.stats()
	o.check(err == nil, "/stats: %v", err)

	d := secondsDur(seconds)
	jobs := classifyJobs(sz.Rate, d)
	for i := 0; i < nLearn; i++ {
		jobs = append(jobs, job{learn: true, idx: i, at: jobsAt(i, sz.LearnRate)})
	}
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].at < jobs[b].at })

	run := &classifyRun{s: s, in: in, tr: tr}
	learnOK := make([]bool, nLearn)
	var learnMu sync.Mutex
	fresh := startFreshPoller(u, nLearn, sz.LearnBatch)
	heap := startHeapSampler(2 * time.Millisecond)
	bufPool := sync.Pool{New: func() any { return new(bytes.Buffer) }}
	start := time.Now()
	unsent, late := openLoop(start, jobs, secondsDur(sz.GraceS), func(j job, due time.Time) {
		buf := bufPool.Get().(*bytes.Buffer)
		defer bufPool.Put(buf)
		if !j.learn {
			run.send(j.idx%len(in.bodies), due, buf)
			return
		}
		ls := tr.begin("client.learn", 0, 0)
		code, err := s.cl.do("POST", "/learn", learnBodies[j.idx], buf)
		ls.end()
		ok := err == nil && code == 202 && bytes.Contains(buf.Bytes(), []byte(fmt.Sprintf(`"accepted":%d`, sz.LearnBatch)))
		learnMu.Lock()
		learnOK[j.idx] = ok
		learnMu.Unlock()
	})
	replies := append(run.take(), unsentReplies(unsent, start, time.Now(), len(in.bodies))...)
	covered := fresh.wait(secondsDur(sz.GraceS))
	polled := time.Now()
	heap.stopSampling()
	after, err := s.stats()
	o.check(err == nil, "/stats: %v", err)
	o.check(s.shutdown() == nil, "shutdown failed")
	setups.repeat(o, in, halfSetup, true, false, tr)

	checkReplies(o, replies, in, s.rec, memo)
	var freshMS []float64
	for i := 0; i < nLearn; i++ {
		o.attempted++
		due := start.Add(jobsAt(i, sz.LearnRate))
		if !learnOK[i] || covered[i].IsZero() {
			// Never covered: it was at least this stale when polling stopped.
			o.failed++
			freshMS = append(freshMS, ms(polled.Sub(due)))
			continue
		}
		freshMS = append(freshMS, ms(covered[i].Sub(due)))
	}
	st := u.Stats()
	o.check(st.Live == len(in.ws) && st.DeleteMisses == 0 && st.ApplyErrors == 0,
		"updater after the trace: live %d (want %d), %d delete misses, %d apply errors", st.Live, len(in.ws), st.DeleteMisses, st.ApplyErrors)

	// Each exact re-solve slows the requests that overlap it, so a
	// window holds whole rebuild cycles: every window then sees the same
	// number of re-solves.
	period := time.Duration(float64(cycle) / sz.LearnRate * float64(time.Second))
	latWindow := period * ((window + period - 1) / period)
	lat := latencyStats([]segment{{replies, start}}, latWindow, sz.LimitMS)
	o.setE2E(tr, "setup_s", median(setups.setupS))
	o.setE2E(tr, "train_s", median(setups.trainS))
	o.setE2E(tr, "peak_heap_mb", heap.peakMiB())
	// Open loop only: the points answered correctly per second from the
	// first due time to the last answer, which falls below the offered
	// rate only when requests fail or the server ends behind schedule.
	o.setE2E(tr, "classify_pts_per_s", float64(goodPoints(replies))/lastDone(replies).Sub(start).Seconds())
	o.setE2E(tr, "classify_p50_ms", lat.p50)
	o.layer["client.mean_ms"] = lat.mean
	o.layer["client.p90_ms"] = lat.p90
	o.layer["client.p99_ms"] = lat.p99
	o.setE2E(tr, "learn_fresh_p50_ms", quantile(freshMS, 0.5))
	o.setE2E(tr, "learn_fresh_p90_ms", quantile(freshMS, 0.9))
	if tr != nil {
		serveLayers(o, tr, s, run, before, after, late)
		o.layer["online.exact_solves"] = float64(st.ExactSolves)
		o.layer["online.interim_adoptions"] = float64(st.InterimAdoptions)
		o.layer["online.publish_rejects"] = float64(st.PublishRejects)
		o.layer["online.compactions"] = float64(st.Compactions)
		replayUpdater(o, tr, in.ws, trace, learnOK)
	}
	return o
}

// jobsAt is the offset of /learn batch i: half a period after the
// classify schedule's ticks.
func jobsAt(i int, rate float64) time.Duration {
	return time.Duration((float64(i) + 0.5) / rate * float64(time.Second))
}

// freshPoller watches the updater for exact solves: batch i is fresh
// once the deltas applied minus those since the last exact solve reach
// (i+1)·batch.
type freshPoller struct {
	stop    chan struct{}
	done    chan struct{}
	covered []time.Time
}

func startFreshPoller(u *online.Updater, n, batch int) *freshPoller {
	f := &freshPoller{stop: make(chan struct{}), done: make(chan struct{}), covered: make([]time.Time, n)}
	go func() {
		defer close(f.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		next := 0
		for next < n {
			st := u.Stats()
			cov := int(st.Inserts+st.Deletes) - st.SinceExact
			now := time.Now()
			for next < n && cov >= (next+1)*batch {
				f.covered[next] = now
				next++
			}
			select {
			case <-f.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return f
}

// wait lets the poller run for up to grace more, then stops it and
// returns when each batch became covered (zero: never).
func (f *freshPoller) wait(grace time.Duration) []time.Time {
	select {
	case <-f.done:
	case <-time.After(grace):
		close(f.stop)
		<-f.done
	}
	return f.covered
}

// replayUpdater applies the delta trace the server received to a
// standalone updater and times each Apply, split by whether it ran an
// exact solve.
func replayUpdater(o *outcome, tr *tracer, initial geom.WeightedSet, trace [][]online.Delta, sent []bool) {
	u, err := online.NewUpdater(initial.Dim(), initial, online.Config{})
	if err != nil {
		o.check(false, "replay updater: %v", err)
		return
	}
	root := tr.begin("online.replay", 0, 0)
	defer root.end()
	var resolve, apply []float64
	for i, ds := range trace {
		if !sent[i] {
			continue
		}
		for _, d := range ds {
			before := u.Stats().ExactSolves
			sp := tr.begin("online.Apply", root.id, 0)
			err := u.Apply(d)
			dur := sp.end()
			if err != nil {
				o.check(false, "replay apply: %v", err)
				return
			}
			if u.Stats().ExactSolves > before {
				resolve = append(resolve, ms(dur))
			} else {
				apply = append(apply, float64(dur.Nanoseconds())/1e3)
			}
		}
	}
	o.layer["online.resolve_ms"] = median(resolve)
	o.layer["online.apply_us"] = median(apply)
}
