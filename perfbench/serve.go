package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"odinhpc/internal/comm"
	"odinhpc/internal/exec"
	"odinhpc/internal/fusion"
	"odinhpc/internal/serve"
	"odinhpc/internal/trace"
)

// The served configuration: odinserve's server-mode defaults, driven by one
// closed-loop client per core.
const (
	serveGroups  = 2
	serveRanks   = 2
	serveQueue   = 64
	serveClients = 2
	setupRuns    = 9 // set-up is repeated and its median reported
)

// op is one request of a workload's seeded stream.
type op struct {
	index int
	path  string // "/v1/solve" or "/v1/expr"
	body  []byte
	cold  bool // a never-seen matrix fingerprint or expression structure
	large bool // serve-expr: a large-n request
	spec  any  // the mix's own description, for the oracle
}

// request is the decoded form the direct scheduler phase submits:
// *serve.SolveRequest and *serve.ExprRequest both satisfy it.
type request interface {
	Validate() error
	Job() serve.JobFunc
}

// mix is one serving workload: a seeded request stream, its warm set and
// its output oracle.
type mix interface {
	name() string
	next() *op                               // the stream's next request (sequential, deterministic)
	decode(o *op) (request, error)           // the request the HTTP handler would decode
	warm(s *serve.Scheduler) error           // touch every warm spec on every group
	verify(checks []check) []error           // one error (or nil) per check, in order
	rssAt() int                              // the request at which the timed phase reads peak RSS
	probe(s *server, lm *layerMetrics) error // fixed probes on the idle server (traced run)
}

// reply is the part of a job result that the oracles and the layer
// metrics read, decoded at the client so no response body outlives its
// request.
type reply struct {
	Converged  bool    `json:"converged"`
	Iterations int     `json:"iterations"`
	Residual   float64 `json:"residual"`
	XNorm      float64 `json:"x_norm"`
	Sum        float64 `json:"sum"`
	N          int     `json:"n"`
	Millis     float64 `json:"millis"`
}

// check pairs a request with the reply it got.
type check struct {
	op  *op
	rep reply
}

// sample is one operation's outcome at the client. It is fixed-size and
// keeps no part of the request: the oracles regenerate the request from
// the seed (see replay), so the samples a run holds do not add to the
// program's peak RSS beyond a few words each.
type sample struct {
	index  int
	cold   bool
	large  bool
	lat    time.Duration
	status int
	rep    reply
	err    error
	job    *jobTiming // direct phase only
}

// jobTiming is what the direct phase measures inside one request.
type jobTiming struct {
	job   time.Duration // rank 0's job time
	wait  time.Duration // submit until the first rank started
	skew  time.Duration // last rank finished minus first
	valid time.Duration // Validate()
}

func newSample(o *op) sample { return sample{index: o.index, cold: o.cold, large: o.large} }

// server is the program under test, built exactly as odinserve's server
// mode builds it, on a loopback listener.
type server struct {
	sched  *serve.Scheduler
	http   *http.Server
	done   chan error
	base   string
	client *http.Client
}

func startServer() (*server, error) {
	sched := serve.NewScheduler(serve.Options{Groups: serveGroups, Ranks: serveRanks, QueueDepth: serveQueue})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sched.Stop()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		sched: sched,
		http:  &http.Server{Handler: serve.NewServer(sched).Handler()},
		done:  make(chan error, 1),
		base:  "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: serveClients,
			MaxConnsPerHost:     serveClients,
			DisableCompression:  true,
		}},
	}
	go func() { s.done <- s.http.Serve(ln) }()
	if err := s.waitHealthy(); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *server) waitHealthy() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not healthy after 10s: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop closes the listener and connections, waits for Serve to return, and
// shuts the group pool down.
func (s *server) stop() {
	_ = s.http.Close() // the only error is the listener's, already torn down
	<-s.done
	s.client.CloseIdleConnections()
	s.sched.Stop()
}

// post sends one request and reads the whole reply.
func (s *server) post(o *op, tenant string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, s.base+o.path, bytes.NewReader(o.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func (s *server) stats() (serve.StatsSnapshot, error) {
	var snap serve.StatsSnapshot
	resp, err := s.client.Get(s.base + "/v1/stats")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// onEveryGroup runs fn once on each warm group: the copies rendezvous
// before running, and a group runs one job at a time, so no group can take
// two of them.
func onEveryGroup(s *serve.Scheduler, fn serve.JobFunc) error {
	var arrived sync.WaitGroup
	arrived.Add(s.Groups() * s.Ranks())
	pinned := func(c *comm.Comm, st *serve.RankState) (any, error) {
		arrived.Done()
		arrived.Wait()
		return fn(c, st)
	}
	pend := make([]*serve.Pending, 0, s.Groups())
	for g := 0; g < s.Groups(); g++ {
		p, err := s.Submit("warm", pinned)
		if err != nil {
			return err
		}
		pend = append(pend, p)
	}
	for _, p := range pend {
		if _, err := p.Wait(); err != nil {
			return err
		}
	}
	return nil
}

// setUpServer starts a server and warms it: every warm spec touched on
// every group, and one request per client connection.
func setUpServer(m mix) (*server, time.Duration, error) {
	t0 := time.Now()
	fusion.ResetPlanCache()
	s, err := startServer()
	if err != nil {
		return nil, 0, err
	}
	if err := m.warm(s.sched); err != nil {
		s.stop()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	var wg sync.WaitGroup
	errs := make([]error, serveClients)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp, err := s.client.Get(s.base + "/v1/stats")
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			errs[c] = err
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			s.stop()
			return nil, 0, err
		}
	}
	return s, time.Since(t0), nil
}

// source hands out the stream's requests in order to concurrent clients.
// With rssAt set, it reads the peak RSS when it hands out request rssAt, so
// that peak_rss_mb covers a fixed amount of work however fast the host
// runs: the server's caches grow with the requests it has served.
type source struct {
	mu     sync.Mutex
	m      mix
	rssAt  int
	rss    float64 // MB, 0 until read
	rssErr error
}

func (src *source) next() *op {
	src.mu.Lock()
	defer src.mu.Unlock()
	o := src.m.next()
	if src.rssAt > 0 && o.index == src.rssAt {
		src.rss, src.rssErr = peakRSSMB()
	}
	return o
}

// closedLoop runs serveClients clients, each sending its next request only
// after the previous reply, until the duration has passed or limit requests
// were sent (limit 0 = no limit). do performs one request.
func closedLoop(d time.Duration, limit int, src *source, do func(client int, o *op) sample) ([]sample, time.Duration) {
	var (
		mu   sync.Mutex
		all  []sample
		sent int
		wg   sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []sample
			for time.Now().Before(deadline) {
				mu.Lock()
				if limit > 0 && sent >= limit {
					mu.Unlock()
					break
				}
				sent++
				mu.Unlock()
				mine = append(mine, do(c, src.next()))
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return all, time.Since(start)
}

// viaHTTP is the closed-loop body of the HTTP phases.
func viaHTTP(s *server) func(int, *op) sample {
	return func(c int, o *op) sample {
		t0 := time.Now()
		status, body, err := s.post(o, fmt.Sprintf("tenant-%d", c))
		sm := newSample(o)
		sm.lat, sm.status, sm.err = time.Since(t0), status, err
		switch {
		case err != nil:
		case status != http.StatusOK:
			sm.err = fmt.Errorf("HTTP %d %s", status, bytes.TrimSpace(body))
		default:
			sm.err = json.Unmarshal(body, &sm.rep)
		}
		return sm
	}
}

// viaScheduler is the closed-loop body of the direct phase: Validate and
// Scheduler.Do as the handler calls them, with the job wrapped to time its
// ranks.
func viaScheduler(s *server, m mix) func(int, *op) sample {
	return func(c int, o *op) sample {
		sm := newSample(o)
		req, err := m.decode(o)
		if err != nil {
			sm.err = err
			return sm
		}
		t0 := time.Now()
		err = req.Validate()
		valid := time.Since(t0)
		if err != nil {
			sm.err = err
			return sm
		}
		var (
			mu          sync.Mutex
			first, last time.Time // first rank start, last rank finish
			firstEnd    time.Time
			job0        time.Duration
		)
		inner := req.Job()
		wrapped := func(cm *comm.Comm, st *serve.RankState) (any, error) {
			begin := time.Now()
			out, err := inner(cm, st)
			end := time.Now()
			mu.Lock()
			if first.IsZero() || begin.Before(first) {
				first = begin
			}
			if end.After(last) {
				last = end
			}
			if firstEnd.IsZero() || end.Before(firstEnd) {
				firstEnd = end
			}
			if cm.Rank() == 0 {
				job0 = end.Sub(begin)
			}
			mu.Unlock()
			return out, err
		}
		submit := time.Now()
		out, err := s.sched.Do(fmt.Sprintf("tenant-%d", c), wrapped)
		sm.lat = time.Since(t0)
		if err != nil {
			sm.err = err
			return sm
		}
		sm.status = http.StatusOK
		body, err := json.Marshal(out)
		if err == nil {
			err = json.Unmarshal(body, &sm.rep)
		}
		mu.Lock()
		defer mu.Unlock()
		sm.err = err
		sm.job = &jobTiming{job: job0, wait: first.Sub(submit), skew: last.Sub(firstEnd), valid: valid}
		return sm
	}
}

// replay regenerates a workload's request stream from its seed for the
// oracles, which therefore need nothing from the timed phase but fixed-size
// samples. The stream is sequential, so requests are regenerated in index
// order, and each phase's samples follow the previous phase's.
type replay struct{ m mix }

// at returns request index, which must follow the last one returned.
func (r *replay) at(index int) *op {
	for {
		o := r.m.next()
		if o.index == index {
			return o
		}
		if o.index > index {
			panic(fmt.Sprintf("perfbench: request %d replayed out of order", index))
		}
	}
}

// settle checks every sample: transport errors, refusals and other non-200
// statuses, and wrong answers all count as failures. It reports which
// samples were verified correct.
func settle(r *replay, samples []sample, o *outcome) []bool {
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return samples[order[a]].index < samples[order[b]].index })
	var checks []check
	var idx []int
	for _, i := range order {
		s := samples[i]
		o.attempted++
		op := r.at(s.index)
		if s.err != nil {
			o.fail("op %d: %v", s.index, s.err)
			continue
		}
		checks = append(checks, check{op, s.rep})
		idx = append(idx, i)
	}
	ok := make([]bool, len(samples))
	for k, err := range r.m.verify(checks) {
		if err != nil {
			o.fail("op %d: wrong answer: %v", checks[k].op.index, err)
			continue
		}
		ok[idx[k]] = true
	}
	return ok
}

// count is how many of ok are true.
func count(ok []bool) int {
	n := 0
	for _, v := range ok {
		if v {
			n++
		}
	}
	return n
}

// segment is how long the timed closed loop runs between calibrations.
const segment = 2 * time.Second

// calibratedLoop runs the closed loop for d in segments with a calibration
// after each. It returns the samples and the summed length of the segments.
func calibratedLoop(d time.Duration, cal *calibration, src *source, do func(int, *op) sample) ([]sample, time.Duration) {
	var all []sample
	var wall time.Duration
	for left := d; left > 0; left -= segment {
		got, w := closedLoop(min(segment, left), 0, src, do)
		cal.run()
		all = append(all, got...)
		wall += w
	}
	return all, wall
}

// runServe runs one serving workload: set-up (repeated, median reported),
// then either the timed closed loop or the traced layer phases.
func runServe(cfg runConfig, newMix func(int64) mix) (*outcome, error) {
	m := newMix(cfg.seed)
	var setups []float64
	var s *server
	cal := &calibration{}
	for i := 0; i < setupRuns; i++ {
		releaseGarbage()
		srv, d, err := setUpServer(m)
		if err != nil {
			return nil, err
		}
		cal.run()
		setups = append(setups, d.Seconds())
		if i < setupRuns-1 {
			srv.stop()
			continue
		}
		s = srv
	}
	defer s.stop()
	src := &source{m: m}
	chk := &replay{m: newMix(cfg.seed)}
	o := &outcome{}
	if cfg.trace {
		metrics, err := serveLayers(cfg, m, chk, s, src, o)
		o.metrics = metrics
		return o, err
	}
	src.rssAt = m.rssAt()
	samples, wall := calibratedLoop(time.Duration(cfg.seconds*float64(time.Second)), cal, src, viaHTTP(s))
	if src.rss == 0 && src.rssErr == nil {
		fmt.Fprintf(cfg.out, "# the stream did not reach request %d; peak RSS read at the end of the timed phase\n", src.rssAt)
		src.rss, src.rssErr = peakRSSMB()
	}
	if src.rssErr != nil {
		return nil, src.rssErr
	}
	printClasses(cfg.out, samples)
	var lat []float64
	for i, ok := range settle(chk, samples, o) {
		if ok {
			lat = append(lat, ms(samples[i].lat))
		}
	}
	o.metrics = endToEnd(cfg.out, cal, setups, lat, wall.Seconds(), src.rss)
	return o, nil
}

// statsDelta is the change of the server's counters over a phase.
func statsDelta(a, b serve.StatsSnapshot) serve.StatsSnapshot {
	return serve.StatsSnapshot{
		Accepted:      b.Accepted - a.Accepted,
		Completed:     b.Completed - a.Completed,
		Failed:        b.Failed - a.Failed,
		RejectedQueue: b.RejectedQueue - a.RejectedQueue,
		RejectedQuota: b.RejectedQuota - a.RejectedQuota,
		GroupRestarts: b.GroupRestarts - a.GroupRestarts,
	}
}

// serveLayers is the traced run of a serving workload, in four phases that
// split the run's seconds:
//
//   - untraced HTTP closed loop: throughput baseline, client latency minus
//     job millis, latency by request class, exec and plan-cache deltas, and
//     the /v1/stats reconciliation;
//   - traced HTTP closed loop, in windows of one trace session each: span
//     metrics, the budget, and the traced throughput;
//   - direct Scheduler.Do with the job wrapped: Validate, queue wait, rank-0
//     job time and lane skew;
//   - two short traced probes at fixed iteration caps (serve-solve) or one
//     traced large request per template (serve-expr).
func serveLayers(cfg runConfig, m mix, chk *replay, s *server, src *source, o *outcome) (map[string]metric, error) {
	total := time.Duration(cfg.seconds * float64(time.Second))
	lm := newLayerMetrics()

	// Phase 1: untraced HTTP.
	st0, err := s.stats()
	if err != nil {
		return nil, err
	}
	ex0 := exec.Default().Snapshot()
	h0, m0 := fusion.PlanCacheStats()
	plain, plainWall := closedLoop(total*2/5, 0, src, viaHTTP(s))
	ex1 := exec.Default().Snapshot()
	h1, m1 := fusion.PlanCacheStats()
	st1, err := s.stats()
	if err != nil {
		return nil, err
	}
	settle(chk, plain, o)
	var outside, warmLat, coldLat []float64
	for _, sm := range plain {
		if sm.err != nil {
			continue
		}
		outside = append(outside, us(sm.lat)-1000*sm.rep.Millis)
		if sm.cold {
			coldLat = append(coldLat, ms(sm.lat))
		} else {
			warmLat = append(warmLat, ms(sm.lat))
		}
	}
	lm.set("serve.outside_job_us", median(outside))
	lm.set("serve.warm_p50_ms", median(warmLat))
	lm.set("serve.cold_p50_ms", median(coldLat))
	ops := float64(len(plain))
	lm.execDeltas(ex0, ex1, ops, float64(plainWall.Nanoseconds()), serveGroups*serveRanks)
	if h1+m1 > h0+m0 {
		lm.set("fusion.plan_hit_ratio", float64(h1-h0)/float64(h1-h0+m1-m0))
	}
	lm.set("fusion.plan_misses", float64(m1-m0))
	d := statsDelta(st0, st1)
	lm.set("serve.rejected", float64(d.RejectedQueue+d.RejectedQuota))
	lm.set("serve.group_restarts", float64(d.GroupRestarts))
	var okHTTP, refused int64
	for _, sm := range plain {
		switch {
		case sm.status == http.StatusOK:
			okHTTP++
		case sm.status == http.StatusTooManyRequests:
			refused++
		}
	}
	fmt.Fprintf(cfg.out, "# /v1/stats over the untraced phase: completed=%d failed=%d rejected=%d restarts=%d; client saw ok=%d refused=%d\n",
		d.Completed, d.Failed, d.RejectedQueue+d.RejectedQuota, d.GroupRestarts, okHTTP, refused)
	if d.Completed != okHTTP || d.RejectedQueue+d.RejectedQuota != refused {
		o.fail("/v1/stats does not reconcile with the client: server completed %d rejected %d, client ok %d refused %d",
			d.Completed, d.RejectedQueue+d.RejectedQuota, okHTTP, refused)
	}

	// Phase 2: HTTP in windows of at most win.jobs requests, alternately
	// traced (one trace session each) and untraced, so that trace.overhead
	// compares equal windows and tracing is their only difference.
	win := newWindows(m.name())
	var traced, untraced []sample
	var tracedWall, untracedWall, execNs time.Duration
	phaseEnd := time.Now().Add(total * 3 / 10)
	for k := 0; time.Now().Before(phaseEnd); k++ {
		if k%2 == 1 {
			got, wall := closedLoop(time.Until(phaseEnd)+time.Millisecond, win.jobs, src, viaHTTP(s))
			untraced = append(untraced, got...)
			untracedWall += wall
			continue
		}
		exA := exec.Default().Snapshot()
		sess := trace.Start(win.capacity)
		got, wall := closedLoop(time.Until(phaseEnd)+time.Millisecond, win.jobs, src, viaHTTP(s))
		trace.Stop()
		exB := exec.Default().Snapshot()
		traced = append(traced, got...)
		tracedWall += wall
		execNs += time.Duration(exB.Nanos - exA.Nanos)
		win.add(sess.Events(), sess.Dropped())
	}
	settle(chk, append(traced, untraced...), o)
	fmt.Fprintf(cfg.out, "# trace: %d windows of <= %d requests, %d events, fullest lane %d of %d, %d dropped\n",
		win.windows, win.jobs, win.events, win.fullest, win.capacity, win.dropped)
	if untracedWall > 0 && len(untraced) > 0 {
		lm.set("trace.overhead", (float64(len(traced))/tracedWall.Seconds())/(float64(len(untraced))/untracedWall.Seconds()))
	}
	lm.set("trace.dropped", float64(win.dropped))
	lm.set("comm.allreduce_us", median(win.allreduce))
	lm.set("comm.recv_wait_share", float64(win.recvNs)/(float64(tracedWall.Nanoseconds())*serveGroups*serveRanks))
	lm.set("tpetra.halo_us", median(win.gather))

	// Phase 3: direct Scheduler.Do with the job wrapped.
	direct, _ := closedLoop(total*3/10, 0, src, viaScheduler(s, m))
	settle(chk, direct, o)
	var valid, wait, job, skew, iterUs, iters []float64
	for _, sm := range direct {
		if sm.err != nil {
			continue
		}
		valid = append(valid, us(sm.job.valid))
		wait = append(wait, us(sm.job.wait))
		job = append(job, ms(sm.job.job))
		skew = append(skew, us(sm.job.skew))
		if it := sm.rep.Iterations; it > 0 {
			iterUs = append(iterUs, 1000*sm.rep.Millis/float64(it))
			iters = append(iters, float64(it))
		}
	}
	lm.set("serve.validate_us", median(valid))
	lm.set("serve.queue_wait_us", median(wait))
	lm.set("serve.job_ms", median(job))
	lm.set("serve.lane_skew_us", median(skew))
	lm.set("solvers.iterations", median(iters))
	lm.set("solvers.iter_us", median(iterUs))

	// Phase 4: fixed probes.
	if err := m.probe(s, lm); err != nil {
		return nil, err
	}

	// The budget of the mean traced request, from phase 2.
	b := newBudget(m.name(), "client latency of the mean traced request")
	var lat, outsideT []float64
	for _, sm := range traced {
		if sm.err != nil {
			continue
		}
		lat = append(lat, us(sm.lat))
		outsideT = append(outsideT, us(sm.lat)-1000*sm.rep.Millis)
	}
	n := float64(len(lat))
	b.wall = mean(lat)
	b.add("serve: http, decode, validate, queue, dispatch", mean(outsideT))
	b.add("comm: allreduce on rank 0", win.allreduceRank0Us/n)
	b.add("tpetra: halo gather on rank 0", win.gatherRank0Us/n)
	b.add("exec: pool calls per rank (sparse, vectors, fusion vm)", float64(execNs.Nanoseconds())/1e3/n/serveRanks)
	b.print(cfg.out)
	lm.set("budget.unattributed_share", b.unattributedShare())
	// The plan cache was reset at the start of set-up, so its miss count
	// is every compilation since, and each 512th-plus-one dropped it.
	_, misses := fusion.PlanCacheStats()
	lm.set("fusion.cap_crossings", float64(capCrossings(misses)))
	return lm.done(), nil
}

// printClasses writes the latency quantiles of each request class.
func printClasses(w io.Writer, samples []sample) {
	classes := map[string][]float64{}
	for _, sm := range samples {
		c := "warm"
		switch {
		case sm.cold:
			c = "cold"
		case sm.large:
			c = "large"
		}
		classes[c] = append(classes[c], ms(sm.lat))
	}
	for _, c := range []string{"warm", "large", "cold"} {
		if l := classes[c]; len(l) > 0 {
			fmt.Fprintf(w, "# class %-5s n=%-6d p50 %.4g ms  p90 %.4g ms  p99 %.4g ms  max %.4g ms\n",
				c, len(l), quantile(l, 0.5), quantile(l, 0.9), quantile(l, 0.99), quantile(l, 1))
		}
	}
}
