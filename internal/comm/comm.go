// Package comm implements an MPI-style message-passing runtime. A
// communicator of P ranks runs as P goroutines by default, sharing a fabric
// of in-process mailboxes; with the tcp transport the same P ranks can live
// in separate OS processes connected by real sockets (see Transport and the
// comm/launch package). The package provides tagged point-to-point
// messaging, the standard collective operations, per-rank traffic
// accounting, and an optional latency/bandwidth cost model.
//
// The paper's claims about ODIN and PyTrilinos concern communication
// *structure* — how many messages move, how large they are, and between which
// ranks — rather than wire speed. This substrate exposes exactly those
// quantities deterministically (see Stats and CostModel), which is what the
// E1/E3/E4/E10 experiments measure. Everything above the Transport boundary
// (collectives, fault injection, Stats, tracing) is transport-agnostic, so
// the measured structure is identical whether ranks share a process or not.
package comm

import (
	"fmt"
	"os"
	"sync"
	"time"

	"odinhpc/internal/trace"
)

// AnySource matches a message from any sender in Recv.
const AnySource = -1

// AnyTag matches a message with any tag in Recv.
const AnyTag = -1

// Message is a received point-to-point message. Payload holds the data that
// was sent; slices are copied on send so the receiver may mutate freely.
type Message struct {
	Src     int
	Tag     int
	Payload any

	// seq is the per-(src,dst) delivery sequence number, assigned only while
	// a fault plan is active; receivers use it to discard duplicated
	// deliveries. Zero means "no fault layer".
	seq uint64
}

// mailbox is the per-destination message queue. Receivers scan it for a
// matching (src, tag) pair and block on the condition variable otherwise.
// The delayed and seen fields belong to the fault-injection layer and stay
// nil/empty when no plan is active.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []Message
	delayed []heldMsg
	seen    map[int]map[uint64]struct{}
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// fabric is the shared state of one communicator: its context id and rank
// owner table, the mailbox registry, traffic statistics, the cost model, and
// (optionally) the fault plan with its session-wide abort latch. On remote
// transports each process holds its own fabric for the same context; only
// the locally hosted mailboxes are live in its registry.
type fabric struct {
	ctx   uint64
	size  int
	owner []int // world rank hosting each communicator rank
	tr    Transport
	reg   *registry
	sess  *session
	stats *Stats
	model *CostModel
	plan  *FaultPlan
	fs    *failState
	// jitter is the seeded scheduling-pressure plan (sched.go); nil outside
	// stress runs.
	jitter *SchedJitter

	// recvTimeout is the armed watchdog bound for blocking Recvs on the
	// watchful path; see Config.RecvTimeout for the resolution order.
	recvTimeout time.Duration
	// watchful selects the guarded Recv path (abort-latch checks plus
	// watchdog). It is armed by a fault plan, an explicit Config.RecvTimeout,
	// or a remote transport — any situation where a peer can genuinely fail.
	watchful bool
	// remote mirrors Transport.Remote for the world transport: frames cross
	// a wire that can genuinely fail, so Recv stays watchful and faults are
	// broadcast to peers.
	remote bool
	// perProc marks a genuinely multi-process session (RunRemote): this
	// process's Stats hold only its own rank's sends and GlobalStats must
	// Allreduce to aggregate. Loopback tcp sessions are remote but not
	// perProc — all ranks share one Stats object.
	perProc bool
}

// seed returns the fault-plan seed for error stamping, or 0 without a plan
// (watchful sessions on remote transports raise FaultErrors too).
func (f *fabric) seed() int64 {
	if f.plan != nil {
		return f.plan.Seed
	}
	return 0
}

// Comm is one rank's handle on the communicator. It is owned by a single
// goroutine; methods on distinct Comm values may be called concurrently.
type Comm struct {
	rank    int
	size    int
	f       *fabric
	tr      Transport // this rank's endpoint (== f.tr on in-process transports)
	box     *mailbox  // this rank's mailbox, resolved once
	collSeq int       // per-rank collective sequence number (SPMD-synchronized)
	simTime float64   // accumulated modeled communication time, seconds
	sendSeq []uint64  // per-destination delivery sequence (fault plans only)

	// jitterSeq counts this rank's scheduling-jitter decision points; it
	// feeds the seed-pure yield hash (sched.go) and stays zero without a
	// SchedJitter.
	jitterSeq uint64
}

// Rank returns this rank's index in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return c.size }

// Transport returns the name of the transport carrying this rank's traffic
// ("inproc", "tcp").
func (c *Comm) Transport() string { return c.tr.Name() }

// Run spawns size ranks, each executing fn with its own Comm, and waits for
// all of them. It returns the first non-nil error returned by any rank; a
// panic in one rank is captured and reported as an error rather than
// crashing the process.
func Run(size int, fn func(c *Comm) error) error {
	_, err := RunStats(size, fn)
	return err
}

// RunStats is Run but also returns the communicator's traffic statistics.
func RunStats(size int, fn func(c *Comm) error) (*Stats, error) {
	return RunModel(size, nil, fn)
}

// RunModel is RunStats with an explicit cost model applied to every message.
// A nil model disables time accounting.
func RunModel(size int, model *CostModel, fn func(c *Comm) error) (*Stats, error) {
	return RunConfig(size, Config{Model: model}, fn)
}

// TransportEnv is the environment variable consulted when Config.Transport
// is empty: setting ODINHPC_TRANSPORT=tcp reruns every comm session — and
// therefore every test built on Run/RunConfig, including the golden and
// chaos harnesses — over the socket transport without touching the callers.
const TransportEnv = "ODINHPC_TRANSPORT"

// Config bundles the optional knobs of a communicator session. The zero
// value matches RunStats.
type Config struct {
	// Model applies an alpha-beta cost model to every message.
	Model *CostModel
	// Faults is the seeded fault-injection plan for chaos runs.
	Faults *FaultPlan
	// Transport names the wire: "inproc" (default) runs every rank as a
	// goroutine over shared mailboxes; "tcp" runs the same ranks over real
	// loopback sockets (still in one process — see comm/launch and RunRemote
	// for separate OS processes). Empty falls back to $ODINHPC_TRANSPORT,
	// then "inproc".
	Transport string
	// RecvTimeout bounds every blocking Recv of the session and arms the
	// watchful receive path even without a fault plan. Resolution order for
	// the armed watchdog: Faults.RecvTimeout, then this field, then 10s.
	// Zero leaves plain inproc sessions unguarded (the legacy contract:
	// without a plan, a buggy kernel may block forever).
	RecvTimeout time.Duration
	// Jitter injects seeded scheduling pressure at Send/Recv/collective
	// entry (sched.go). It perturbs goroutine interleavings only — results
	// and traffic matrices must be identical to a jitter-free run — and
	// does not by itself arm the watchful receive path; stress runs pair it
	// with RecvTimeout so a schedule-dependent deadlock surfaces as a typed
	// FaultTimeout instead of a hang.
	Jitter *SchedJitter
}

// transportName resolves the configured transport.
func (cfg Config) transportName() string {
	if cfg.Transport != "" {
		return cfg.Transport
	}
	if t := os.Getenv(TransportEnv); t != "" {
		return t
	}
	return "inproc"
}

// resolveRecvTimeout picks the armed watchdog bound for a session.
func resolveRecvTimeout(cfg Config) time.Duration {
	if cfg.Faults != nil && cfg.Faults.RecvTimeout > 0 {
		return cfg.Faults.RecvTimeout
	}
	if cfg.RecvTimeout > 0 {
		return cfg.RecvTimeout
	}
	return defaultRecvTimeout
}

// defaultRecvTimeout is the last-resort Recv watchdog on watchful sessions;
// override it per session with Config.RecvTimeout or FaultPlan.RecvTimeout.
const defaultRecvTimeout = 10 * time.Second

// RunConfig is the fully configurable session entry point. On a watchful
// session (fault plan, explicit RecvTimeout, or a remote transport), any
// rank failure — planned crash, exhausted retransmits, watchdog timeout,
// wire failure, user error, or panic — aborts the whole session: peers
// blocked in Recv wake promptly and report a *FaultError instead of hanging,
// matching MPI's abort-the-job default but with a typed in-process error.
func RunConfig(size int, cfg Config, fn func(c *Comm) error) (*Stats, error) {
	if size <= 0 {
		return nil, fmt.Errorf("comm: size must be positive, got %d", size)
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.validate(size); err != nil {
			return nil, err
		}
	}
	reg := newRegistry()
	fs := newFailState(reg)
	owner := make([]int, size)
	for i := range owner {
		owner[i] = i
	}
	f := &fabric{
		ctx:         worldCtx,
		size:        size,
		owner:       owner,
		reg:         reg,
		sess:        newSession(),
		stats:       newStats(size),
		model:       cfg.Model,
		plan:        cfg.Faults,
		fs:          fs,
		jitter:      cfg.Jitter,
		recvTimeout: resolveRecvTimeout(cfg),
	}
	trs := make([]Transport, size)
	switch name := cfg.transportName(); name {
	case "inproc":
		f.tr = newInprocTransport(reg, worldCtx, size)
		for i := range trs {
			trs[i] = f.tr
		}
	case "tcp":
		eps, err := newLoopbackTCP(size, reg, fs)
		if err != nil {
			return nil, err
		}
		for i := range trs {
			trs[i] = eps[i]
		}
		f.remote = true
	default:
		return nil, fmt.Errorf("comm: unknown transport %q", name)
	}
	f.watchful = cfg.Faults != nil || cfg.RecvTimeout > 0 || f.remote
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := &Comm{rank: rank, size: size, f: f, tr: trs[rank], box: reg.box(worldCtx, rank)}
			defer func() {
				if p := recover(); p != nil {
					if fe, ok := p.(*FaultError); ok {
						errs[rank] = fe
					} else {
						errs[rank] = fmt.Errorf("comm: rank %d panicked: %v", rank, p)
					}
					f.abortPeers(rank, errs[rank])
				}
			}()
			errs[rank] = fn(c)
			if errs[rank] != nil {
				f.abortPeers(rank, errs[rank])
			}
		}(r)
	}
	wg.Wait()
	if f.remote {
		// Close endpoints concurrently: an orderly close waits for the
		// peer's goodbye, which only arrives once the peer closes too.
		var cwg sync.WaitGroup
		for _, tr := range trs {
			cwg.Add(1)
			go func(t Transport) {
				defer cwg.Done()
				t.Close()
			}(tr)
		}
		cwg.Wait()
	}
	return f.stats, firstError(errs)
}

// worldCtx is the context id of the world communicator; Split derives
// sub-communicator contexts from it deterministically (split.go).
const worldCtx uint64 = 0

// abortPeers propagates a rank failure to all peers when the session is
// watchful, so no rank can strand the others mid-collective. On plain
// inproc sessions the legacy behavior (peers may be left waiting by a buggy
// kernel) stands — the guarded path is strictly pay-for-use.
func (f *fabric) abortPeers(rank int, err error) {
	if !f.watchful {
		return
	}
	if fe, ok := err.(*FaultError); ok {
		f.fs.fail(fe)
		return
	}
	f.fs.fail(&FaultError{Kind: FaultPeerFailed, Rank: rank, Peer: -1, Seed: f.seed()})
}

// firstError prefers a root-cause failure over propagated FaultPeerFailed
// errors so callers see the originating fault, not a downstream echo. When
// every rank reports an echo — the root fault originated off-rank, e.g. in a
// transport reader goroutine — the echo's recorded cause is surfaced instead.
func firstError(errs []error) error {
	var propagated error
	for _, e := range errs {
		if e == nil {
			continue
		}
		if fe, ok := e.(*FaultError); ok && fe.Kind == FaultPeerFailed {
			if propagated == nil {
				propagated = e
			}
			continue
		}
		return e
	}
	if fe, ok := propagated.(*FaultError); ok && fe.Cause != nil {
		return fe.Cause
	}
	return propagated
}

// Send delivers data to rank dst with the given tag. Sends are eager and
// never block. Slice payloads are copied, mimicking an MPI buffer copy, so
// the sender may reuse its buffer immediately.
func (c *Comm) Send(dst, tag int, data any) {
	c.send(dst, tag, copyPayload(data))
}

// sendSlice is Send for a typed slice, used by the collectives: it copies
// data once and boxes the copy once, so the caller's slice never escapes
// and every element type is copied, not only the ones copyPayload knows.
// Traffic accounting and tracing are exactly Send's.
func sendSlice[T any](c *Comm, dst, tag int, data []T) {
	out := make([]T, len(data))
	copy(out, data)
	c.send(dst, tag, out)
}

// send delivers a payload the fabric already owns: the caller has copied it
// and keeps no reference, so the receiver may mutate it freely.
func (c *Comm) send(dst, tag int, payload any) {
	if dst < 0 || dst >= c.size {
		panic(fmt.Sprintf("comm: Send to invalid rank %d (size %d)", dst, c.size))
	}
	c.jitter(jitterSend)
	n := payloadBytes(payload)
	c.f.stats.record(c.rank, dst, n)
	// One trace event per logical Send — the identical unit Stats counts —
	// so the trace-derived message matrix reconciles exactly with the Stats
	// matrices, including under fault plans (retransmits are deliveries,
	// not sends).
	if s := trace.Active(); s != nil {
		s.Emit(trace.Event{Kind: trace.KindSend, Rank: int32(c.rank), Worker: -1,
			Peer: int32(dst), Tag: int32(tag), Start: s.Now(), Bytes: n})
	}
	if c.f.model != nil {
		c.simTime += c.f.model.Time(n)
	}
	if c.f.plan != nil {
		c.faultySend(dst, tag, payload)
		return
	}
	c.tr.Deliver(c.f.owner[dst], Frame{
		Ctx: c.f.ctx, Src: c.rank, Dst: dst, Tag: tag, Payload: payload,
	})
}

// Recv blocks until a message matching (src, tag) arrives and returns its
// payload. Use AnySource and/or AnyTag as wildcards.
func (c *Comm) Recv(src, tag int) any {
	return c.RecvMsg(src, tag).Payload
}

// RecvMsg is Recv but returns the full message envelope, exposing the actual
// source and tag (useful with wildcards).
func (c *Comm) RecvMsg(src, tag int) Message {
	s := trace.Active()
	if s == nil {
		return c.recvMsg(src, tag)
	}
	t0 := s.Now()
	m := c.recvMsg(src, tag)
	// Dur is the time this rank spent blocked — the per-rank wait profile
	// that makes collective skew visible in the exported timeline.
	s.Emit(trace.Event{Kind: trace.KindRecv, Rank: int32(c.rank), Worker: -1,
		Peer: int32(m.Src), Tag: int32(m.Tag), Start: t0, Dur: s.Now() - t0,
		Bytes: payloadBytes(m.Payload)})
	return m
}

func (c *Comm) recvMsg(src, tag int) Message {
	c.jitter(jitterRecv)
	if c.f.watchful {
		return c.watchfulRecv(src, tag)
	}
	box := c.box
	box.mu.Lock()
	defer box.mu.Unlock()
	for {
		for i, m := range box.queue {
			if (src == AnySource || m.Src == src) && (tag == AnyTag || m.Tag == tag) {
				box.queue = append(box.queue[:i], box.queue[i+1:]...)
				if c.f.model != nil {
					c.simTime += c.f.model.Time(payloadBytes(m.Payload))
				}
				return m
			}
		}
		box.cond.Wait()
	}
}

// Probe reports whether a message matching (src, tag) is waiting, without
// receiving it. Under a fault plan, logically delayed messages also count as
// waiting (they are guaranteed to surface before any Recv can block).
func (c *Comm) Probe(src, tag int) bool {
	box := c.box
	box.mu.Lock()
	defer box.mu.Unlock()
	match := func(m Message) bool {
		return (src == AnySource || m.Src == src) && (tag == AnyTag || m.Tag == tag)
	}
	for _, m := range box.queue {
		if match(m) && !box.seenLocked(m.Src, m.seq) {
			return true
		}
	}
	for _, h := range box.delayed {
		if match(h.m) && !box.seenLocked(h.m.Src, h.m.seq) {
			return true
		}
	}
	return false
}

// SendRecv sends sendData to dst and receives a message from src with the
// same tag, in a deadlock-free order (sends are eager).
func (c *Comm) SendRecv(dst int, sendData any, src, tag int) any {
	c.Send(dst, tag, sendData)
	return c.Recv(src, tag)
}

// Stats returns a snapshot of this communicator's traffic statistics. On
// in-process transports the counters are shared by all ranks, so any rank's
// snapshot is the communicator-wide view; on a multi-process session each
// process accumulates only its own rank's sends — use GlobalStats for the
// aggregated matrix.
func (c *Comm) Stats() StatsSnapshot { return c.f.stats.snapshot() }

// ResetStats zeroes this communicator's traffic counters in one critical
// section. The reset is not collective and does not synchronize ranks: call
// it from a single rank between two Barriers to delimit a measurement
// region, otherwise sends still in flight on other ranks land on an
// unpredictable side of the reset. On a multi-process session it clears only
// the calling process's counters.
func (c *Comm) ResetStats() { c.f.stats.reset() }

// GlobalStats returns the communicator-wide traffic snapshot. On in-process
// transports it is exactly Stats; on a multi-process session it sums the
// per-process matrices with an Allreduce (which is itself counted as traffic
// by later snapshots, not this one). Collective on remote transports.
func GlobalStats(c *Comm) StatsSnapshot {
	snap := c.Stats()
	if !c.f.perProc {
		return snap
	}
	snap.Msgs = Allreduce(c, snap.Msgs, OpSum)
	snap.Bytes = Allreduce(c, snap.Bytes, OpSum)
	return snap
}

// SimTime returns the modeled communication time accumulated by this rank
// under the cost model passed to RunModel, in seconds. Zero without a model.
func (c *Comm) SimTime() float64 { return c.simTime }

// copyPayload deep-copies slice payloads of the common element types so that
// sender and receiver never alias memory, as on a real network. Non-slice
// values are returned as-is (they are copied by value anyway).
func copyPayload(data any) any {
	switch v := data.(type) {
	case []float64:
		out := make([]float64, len(v))
		copy(out, v)
		return out
	case []float32:
		out := make([]float32, len(v))
		copy(out, v)
		return out
	case []int:
		out := make([]int, len(v))
		copy(out, v)
		return out
	case []int64:
		out := make([]int64, len(v))
		copy(out, v)
		return out
	case []int32:
		out := make([]int32, len(v))
		copy(out, v)
		return out
	case []byte:
		out := make([]byte, len(v))
		copy(out, v)
		return out
	case []bool:
		out := make([]bool, len(v))
		copy(out, v)
		return out
	case []complex128:
		out := make([]complex128, len(v))
		copy(out, v)
		return out
	case []string:
		out := make([]string, len(v))
		copy(out, v)
		return out
	default:
		return data
	}
}
