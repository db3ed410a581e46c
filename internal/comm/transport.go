package comm

import "sync"

// This file defines the transport boundary of the comm fabric. Everything
// above it — collectives, fault injection, Stats, tracing, Split — is
// transport-agnostic: a Send turns into exactly one Frame (plus fault-layer
// retransmits/duplicates) handed to a Transport, and every delivery lands in
// a destination mailbox found through the per-process registry. The default
// inproc transport reproduces the original channel-mailbox fabric with zero
// added cost; the tcp transport (tcp.go) moves the same frames across real
// sockets so ranks can live in separate OS processes.

// Frame is the unit a Transport moves: one logical point-to-point message
// together with the fault-layer metadata the destination mailbox needs to
// apply the sender's seeded decisions. Src and Dst are ranks *within* the
// communicator identified by Ctx; the wire destination (the world rank
// hosting the mailbox) is passed to Deliver separately so sub-communicator
// traffic can ride the world transport.
type Frame struct {
	Ctx     uint64 // communicator context id (0 = world communicator)
	Src     int    // source rank within Ctx
	Dst     int    // destination rank within Ctx
	Tag     int
	Seq     uint64 // per-(src,dst) delivery sequence; 0 = fault layer off
	Hold    int    // fault layer: deliveries this frame sits out (logical delay)
	Reorder uint64 // fault layer: nonzero requests an out-of-order splice
	Payload any    // already owned by the frame (copied or decoded), never aliased
}

// Transport moves frames between ranks. Implementations must preserve
// per-(src,dst) frame order — MPI's non-overtaking guarantee depends on it —
// and take ownership of the frame's payload (it is already copied or
// decoded; it never aliases sender memory, and once delivered it belongs to
// the receiver). Frames travel by value, so a send allocates no frame.
//
// Deliver must not block indefinitely: a send is eager on every transport
// (the tcp transport queues frames to a per-peer writer goroutine with an
// unbounded outbox).
type Transport interface {
	// Name identifies the transport ("inproc", "tcp") in errors and traces.
	Name() string
	// Remote reports whether frames can cross a process or wire boundary,
	// i.e. whether delivery can genuinely fail. Remote transports arm the
	// watchful Recv path (abort latch checks plus watchdog) even without a
	// fault plan.
	Remote() bool
	// Deliver routes fr to the mailbox of (fr.Ctx, fr.Dst). wireDst is the
	// world rank hosting that mailbox.
	Deliver(wireDst int, fr Frame)
	// Close releases transport resources. On remote transports it flushes
	// pending frames, signals an orderly goodbye to peers, and reaps the
	// per-peer goroutines. Close is called once, after every local rank's
	// body has returned.
	Close() error
}

// boxKey addresses one mailbox in a process: the communicator context plus
// the rank within it.
type boxKey struct {
	ctx  uint64
	rank int
}

// registry is the per-process home of every mailbox of one session, across
// the world communicator and all Split-derived sub-communicators. Mailboxes
// are created lazily on first touch so an incoming tcp frame for a
// sub-communicator the local rank has not constructed yet still has a place
// to land.
type registry struct {
	mu    sync.Mutex
	boxes map[boxKey]*mailbox
}

func newRegistry() *registry {
	return &registry{boxes: make(map[boxKey]*mailbox)}
}

// box returns the mailbox for (ctx, rank), creating it on first use.
func (r *registry) box(ctx uint64, rank int) *mailbox {
	k := boxKey{ctx, rank}
	r.mu.Lock()
	b := r.boxes[k]
	if b == nil {
		b = newMailbox()
		r.boxes[k] = b
	}
	r.mu.Unlock()
	return b
}

// all snapshots every registered mailbox; the failure latch walks it to wake
// blocked receivers session-wide.
func (r *registry) all() []*mailbox {
	r.mu.Lock()
	out := make([]*mailbox, 0, len(r.boxes))
	for _, b := range r.boxes {
		out = append(out, b)
	}
	r.mu.Unlock()
	return out
}

// session is the per-process bookkeeping shared by a world communicator and
// every sub-communicator split from it: the fabric cache keyed by context id.
// Caching matters on the in-process transports, where all member ranks of a
// Split must share one fabric (and therefore one Stats object) — the first
// member to construct the sub-fabric wins and the rest adopt it.
type session struct {
	mu      sync.Mutex
	fabrics map[uint64]*fabric
}

func newSession() *session {
	return &session{fabrics: make(map[uint64]*fabric)}
}

// fabricFor returns the cached fabric for ctx, building it with mk on first
// use. Every member computes identical construction parameters, so whichever
// member arrives first may safely build for all.
func (s *session) fabricFor(ctx uint64, mk func() *fabric) *fabric {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.fabrics[ctx]; ok {
		return f
	}
	f := mk()
	s.fabrics[ctx] = f
	return f
}

// ---- inproc transport ---------------------------------------------------

// inprocTransport is the original channel-mailbox fabric re-expressed behind
// the Transport interface: delivery is a direct enqueue into the destination
// rank's mailbox in the same address space. The mailbox slice is resolved
// once per fabric so the per-message cost stays an array index, exactly as
// before the boundary existed.
type inprocTransport struct {
	boxes []*mailbox
}

func newInprocTransport(reg *registry, ctx uint64, size int) *inprocTransport {
	boxes := make([]*mailbox, size)
	for i := range boxes {
		boxes[i] = reg.box(ctx, i)
	}
	return &inprocTransport{boxes: boxes}
}

func (t *inprocTransport) Name() string { return "inproc" }
func (t *inprocTransport) Remote() bool { return false }
func (t *inprocTransport) Close() error { return nil }

func (t *inprocTransport) Deliver(wireDst int, fr Frame) {
	t.boxes[fr.Dst].deliver(fr)
}

// deliver lands one frame in the mailbox. Frames without fault-layer
// metadata (Seq == 0) take the original fast path: append and wake. Framed
// fault metadata routes through deliverFault, which applies the sender's
// seeded hold/reorder decisions while preserving per-source order.
func (b *mailbox) deliver(fr Frame) {
	if fr.Seq == 0 {
		b.mu.Lock()
		b.queue = append(b.queue, Message{Src: fr.Src, Tag: fr.Tag, Payload: fr.Payload})
		b.mu.Unlock()
		b.cond.Broadcast()
		return
	}
	b.deliverFault(Message{Src: fr.Src, Tag: fr.Tag, Payload: fr.Payload, seq: fr.Seq}, fr.Hold, fr.Reorder)
}
