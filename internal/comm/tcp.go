package comm

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the tcp transport: the same Frames the inproc
// transport enqueues directly are encoded as length-prefixed binary frames
// (frame.go) and moved over a full mesh of TCP connections, one per rank
// pair, used bidirectionally. Each connection has a dedicated writer
// goroutine draining an unbounded outbox — so Send stays eager and never
// blocks on the wire — and a reader goroutine demultiplexing incoming frames
// into the destination mailboxes through the process registry. Per-(src,dst)
// frame order is preserved end to end: the outbox is FIFO, TCP is ordered,
// and the reader delivers in arrival order, which is all the non-overtaking
// guarantee needs.
//
// Two modes share this code. Loopback mode (Config.Transport == "tcp" or
// ODINHPC_TRANSPORT=tcp) gives every rank of an ordinary Run/RunConfig
// session its own socket endpoint inside one process — every existing test
// harness then exercises the real wire. Multi-process mode (RunRemote, used
// by the comm/launch package and cmd/odinrun) runs one rank per OS process;
// the first locally originated fault is broadcast to peers as an abort
// frame, and a torn connection surfaces as a typed *TransportError wrapped
// in a *FaultError of kind FaultTransport.

// TransportError is the typed error wrapping a socket-level failure — dial,
// handshake, read, write, or codec. It is carried inside a *FaultError of
// kind FaultTransport (see FaultError.Wire), so callers can tell a real wire
// failure from an injected fault with errors.As:
//
//	var te *comm.TransportError
//	if errors.As(err, &te) { /* the wire itself broke */ }
type TransportError struct {
	Transport string // transport name, e.g. "tcp"
	Op        string // failing operation: dial, accept, handshake, read, write, encode, decode
	Peer      int    // world rank of the counterpart, -1 when unknown
	Err       error  // underlying error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("comm: %s transport: %s (peer %d): %v", e.Transport, e.Op, e.Peer, e.Err)
}

// Unwrap exposes the underlying socket error to errors.Is/errors.As.
func (e *TransportError) Unwrap() error { return e.Err }

// handshakeTimeout bounds the hello exchange on a fresh connection.
const handshakeTimeout = 10 * time.Second

// closeGrace bounds how long Close waits for peers to say goodbye before
// force-closing connections; it only triggers when a peer process wedges
// after this process finished.
const closeGrace = 30 * time.Second

// tcpEndpoint is one world rank's socket endpoint.
type tcpEndpoint struct {
	rank    int
	size    int
	session uint64
	reg     *registry
	fs      *failState
	ln      net.Listener
	conns   []*tcpConn // indexed by peer world rank; nil for self
	closed  atomic.Bool
	wg      sync.WaitGroup
}

func (e *tcpEndpoint) Name() string { return "tcp" }
func (e *tcpEndpoint) Remote() bool { return true }

// Deliver encodes fr and queues it on the connection to wireDst; frames for
// the local rank skip the wire and land directly in the registry. An
// unencodable payload is a programming error on the sending rank: it fails
// the session and unwinds the sender with a typed FaultError.
func (e *tcpEndpoint) Deliver(wireDst int, fr Frame) {
	if wireDst == e.rank {
		e.reg.box(fr.Ctx, fr.Dst).deliver(fr)
		return
	}
	buf, err := encodeData(&fr)
	if err != nil {
		te := &TransportError{Transport: "tcp", Op: "encode", Peer: wireDst, Err: err}
		fe := &FaultError{Kind: FaultTransport, Rank: e.rank, Peer: wireDst, Tag: fr.Tag, Wire: te}
		e.fs.fail(fe)
		panic(fe)
	}
	e.conns[wireDst].push(buf)
}

// broadcastAbort ships the first locally originated fault to every peer; the
// failState notify hook installs it on multi-process sessions.
func (e *tcpEndpoint) broadcastAbort(fe *FaultError) {
	buf := encodeAbort(fe)
	for _, tc := range e.conns {
		if tc != nil {
			tc.push(buf)
		}
	}
}

// Close flushes every outbox, says goodbye to each peer, waits for the
// goodbyes (or EOFs) coming back, then tears the sockets down. Like
// MPI_Finalize it may wait for peers still working; a grace timer
// force-closes if a peer wedges entirely.
func (e *tcpEndpoint) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	for _, tc := range e.conns {
		if tc == nil {
			continue
		}
		tc.mu.Lock()
		tc.bye = true
		tc.mu.Unlock()
		tc.cond.Broadcast()
	}
	force := time.AfterFunc(closeGrace, func() {
		for _, tc := range e.conns {
			if tc != nil {
				tc.nc.Close()
			}
		}
	})
	// Deferred rather than stopped inline after wg.Wait: a panic out of the
	// teardown below must not leave a 30s grace timer live per session — a
	// warm-group server creates and destroys sessions for its whole lifetime.
	defer force.Stop()
	e.wg.Wait()
	for _, tc := range e.conns {
		if tc != nil {
			tc.nc.Close()
		}
	}
	if e.ln != nil {
		e.ln.Close()
	}
	return nil
}

// start spawns the per-connection reader and writer goroutines once the
// mesh is complete.
func (e *tcpEndpoint) start() {
	for _, tc := range e.conns {
		if tc == nil {
			continue
		}
		e.wg.Add(2)
		go tc.readLoop()  //lint:allow planreuse Ownership handoff: this goroutine is the conn's sole reader
		go tc.writeLoop() //lint:allow planreuse Ownership handoff: this goroutine is the conn's sole writer
	}
}

// mesh builds the full connection mesh for this endpoint: dial every lower
// rank, accept every higher one, handshaking both ways. Dial targets are
// strictly lower ranks, so the global dial/accept order is acyclic and the
// sequential loop cannot deadlock.
func (e *tcpEndpoint) mesh(addrs []string) error {
	for j := 0; j < e.rank; j++ {
		nc, err := dialRetry(addrs[j])
		if err != nil {
			return &TransportError{Transport: "tcp", Op: "dial", Peer: j, Err: err}
		}
		if err := e.handshake(nc, j, true); err != nil {
			nc.Close()
			return err
		}
		e.conns[j] = newTCPConn(e, j, nc)
	}
	for n := e.rank + 1; n < e.size; n++ {
		nc, err := e.ln.Accept()
		if err != nil {
			return &TransportError{Transport: "tcp", Op: "accept", Peer: -1, Err: err}
		}
		peer, err := e.acceptHandshake(nc)
		if err != nil {
			nc.Close()
			return err
		}
		if peer <= e.rank || peer >= e.size || e.conns[peer] != nil {
			nc.Close()
			return &TransportError{Transport: "tcp", Op: "handshake", Peer: peer,
				Err: fmt.Errorf("unexpected peer rank %d", peer)}
		}
		e.conns[peer] = newTCPConn(e, peer, nc)
	}
	return nil
}

// handshake runs the dialer side of the hello exchange with expected peer j.
func (e *tcpEndpoint) handshake(nc net.Conn, j int, dialer bool) error {
	nc.SetDeadline(time.Now().Add(handshakeTimeout))
	defer nc.SetDeadline(time.Time{})
	if _, err := nc.Write(encodeHello(hello{session: e.session, size: e.size, rank: e.rank})); err != nil {
		return &TransportError{Transport: "tcp", Op: "handshake", Peer: j, Err: err}
	}
	h, err := e.readHello(nc, j)
	if err != nil {
		return err
	}
	if h.rank != j {
		return &TransportError{Transport: "tcp", Op: "handshake", Peer: j,
			Err: fmt.Errorf("peer identifies as rank %d, want %d", h.rank, j)}
	}
	return nil
}

// acceptHandshake runs the acceptor side: read the peer's hello, validate,
// reply with our own. Returns the peer's rank.
func (e *tcpEndpoint) acceptHandshake(nc net.Conn) (int, error) {
	nc.SetDeadline(time.Now().Add(handshakeTimeout))
	defer nc.SetDeadline(time.Time{})
	h, err := e.readHello(nc, -1)
	if err != nil {
		return -1, err
	}
	if _, err := nc.Write(encodeHello(hello{session: e.session, size: e.size, rank: e.rank})); err != nil {
		return -1, &TransportError{Transport: "tcp", Op: "handshake", Peer: h.rank, Err: err}
	}
	return h.rank, nil
}

func (e *tcpEndpoint) readHello(nc net.Conn, peer int) (hello, error) {
	kind, body, err := readFrame(nc)
	if err != nil {
		return hello{}, &TransportError{Transport: "tcp", Op: "handshake", Peer: peer, Err: err}
	}
	if kind != frameHello {
		return hello{}, &TransportError{Transport: "tcp", Op: "handshake", Peer: peer,
			Err: fmt.Errorf("first frame kind %d, want handshake", kind)}
	}
	h, err := decodeHello(body)
	if err != nil {
		return hello{}, &TransportError{Transport: "tcp", Op: "handshake", Peer: peer, Err: err}
	}
	if h.session != e.session {
		return hello{}, &TransportError{Transport: "tcp", Op: "handshake", Peer: h.rank,
			Err: fmt.Errorf("session id %#x, want %#x", h.session, e.session)}
	}
	if h.size != e.size {
		return hello{}, &TransportError{Transport: "tcp", Op: "handshake", Peer: h.rank,
			Err: fmt.Errorf("world size %d, want %d", h.size, e.size)}
	}
	return h, nil
}

// dialRetry dials with a short backoff: in multi-process startup a peer's
// listener is guaranteed bound before its address is published, but the
// retry absorbs transient connection-refused races under load.
func dialRetry(addr string) (net.Conn, error) {
	var err error
	for attempt := 0; attempt < 8; attempt++ {
		var nc net.Conn
		nc, err = net.DialTimeout("tcp", addr, handshakeTimeout)
		if err == nil {
			return nc, nil
		}
		time.Sleep(time.Duration(attempt+1) * 25 * time.Millisecond)
	}
	return nil, err
}

// tcpConn is one bidirectional rank-pair connection with its FIFO outbox.
type tcpConn struct {
	ep     *tcpEndpoint
	peer   int
	nc     net.Conn
	mu     sync.Mutex
	cond   *sync.Cond
	outq   [][]byte
	bye    bool        // local close requested: drain, send bye, half-close
	sawBye atomic.Bool // peer announced an orderly close
}

func newTCPConn(e *tcpEndpoint, peer int, nc net.Conn) *tcpConn {
	tc := &tcpConn{ep: e, peer: peer, nc: nc}
	tc.cond = sync.NewCond(&tc.mu)
	return tc
}

// push queues one encoded frame; frames pushed after close are dropped (the
// peer said or will say goodbye — nothing is waiting for them).
func (tc *tcpConn) push(buf []byte) {
	tc.mu.Lock()
	if tc.bye {
		tc.mu.Unlock()
		return
	}
	tc.outq = append(tc.outq, buf)
	tc.mu.Unlock()
	tc.cond.Signal()
}

// fail latches a wire failure as a typed FaultTransport fault, waking every
// blocked receiver in this process. Failures during orderly shutdown or
// after the session already failed are not news and stay quiet.
func (tc *tcpConn) fail(op string, err error) {
	e := tc.ep
	if e.closed.Load() || e.fs.failure() != nil {
		return
	}
	te := &TransportError{Transport: "tcp", Op: op, Peer: tc.peer, Err: err}
	e.fs.fail(&FaultError{Kind: FaultTransport, Rank: e.rank, Peer: tc.peer, Tag: -1, Wire: te})
}

// writeLoop drains the outbox in FIFO order; on close it flushes what is
// queued, writes the goodbye frame, and half-closes the write side so the
// peer's reader sees bye-then-EOF, the orderly ending.
func (tc *tcpConn) writeLoop() {
	defer tc.ep.wg.Done()
	for {
		tc.mu.Lock()
		for len(tc.outq) == 0 && !tc.bye {
			tc.cond.Wait()
		}
		batch := tc.outq
		tc.outq = nil
		done := tc.bye && len(batch) == 0
		tc.mu.Unlock()
		if done {
			if _, err := tc.nc.Write(encodeBye()); err == nil {
				if hc, ok := tc.nc.(interface{ CloseWrite() error }); ok {
					hc.CloseWrite()
				}
			}
			return
		}
		for _, b := range batch {
			if _, err := tc.nc.Write(b); err != nil {
				tc.fail("write", err)
				return
			}
		}
	}
}

// readLoop demultiplexes incoming frames into the process registry until the
// peer says goodbye or the connection dies. EOF without a preceding bye is a
// torn connection — a crashed or killed peer process — and fails the session
// with a typed transport fault; EOF after bye is the orderly ending.
func (tc *tcpConn) readLoop() {
	defer tc.ep.wg.Done()
	br := bufio.NewReader(tc.nc)
	for {
		kind, body, err := readFrame(br)
		if err != nil {
			if err == io.EOF && tc.sawBye.Load() {
				return
			}
			if tc.ep.closed.Load() || tc.ep.fs.failure() != nil {
				return
			}
			tc.fail("read", err)
			return
		}
		switch kind {
		case frameData:
			fr, derr := decodeData(body)
			if derr != nil {
				tc.fail("decode", derr)
				return
			}
			tc.ep.reg.box(fr.Ctx, fr.Dst).deliver(*fr)
		case frameAbort:
			fe, msg, derr := decodeAbort(body)
			if derr != nil {
				tc.fail("decode", derr)
				return
			}
			if fe.Kind == FaultTransport {
				// Rehydrate the wire detail lost in flattening so the local
				// error text still names the remote failure.
				fe.Wire = &TransportError{Transport: "tcp", Op: "remote", Peer: fe.Peer, Err: fmt.Errorf("%s", msg)}
			}
			tc.ep.fs.failRemote(fe)
		case frameBye:
			tc.sawBye.Store(true)
			return
		default:
			tc.fail("protocol", fmt.Errorf("unexpected frame kind %d", kind))
			return
		}
	}
}

// ---- session construction ----------------------------------------------

// loopbackSeq distinguishes concurrent loopback sessions within a process.
var loopbackSeq atomic.Uint64

// newLoopbackTCP builds a size-rank tcp mesh entirely inside this process:
// one listener and endpoint per rank on 127.0.0.1, full handshake, real
// frames on real sockets. The registry and failure latch are shared, so
// Stats, Split attribution, tracing, and fault propagation behave exactly as
// in-process callers expect while every message still crosses the wire.
func newLoopbackTCP(size int, reg *registry, fs *failState) ([]*tcpEndpoint, error) {
	session := uint64(os.Getpid())<<32 | (loopbackSeq.Add(1) & 0xffffffff)
	lns := make([]net.Listener, size)
	addrs := make([]string, size)
	fail := func(err error) ([]*tcpEndpoint, error) {
		for _, ln := range lns {
			if ln != nil {
				ln.Close()
			}
		}
		return nil, err
	}
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(&TransportError{Transport: "tcp", Op: "listen", Peer: i, Err: err})
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	eps := make([]*tcpEndpoint, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for i := range eps {
		eps[i] = &tcpEndpoint{
			rank: i, size: size, session: session,
			reg: reg, fs: fs, ln: lns[i], conns: make([]*tcpConn, size),
		}
		wg.Add(1)
		go func(e *tcpEndpoint, idx int) {
			defer wg.Done()
			errs[idx] = e.mesh(addrs)
		}(eps[i], i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, e := range eps {
				for _, tc := range e.conns {
					if tc != nil {
						tc.nc.Close()
					}
				}
			}
			return fail(err)
		}
	}
	for _, e := range eps {
		e.start()
	}
	return eps, nil
}

// RemoteEnv describes one process's place in a multi-process tcp session,
// normally assembled by the comm/launch package: the world geometry, the
// shared session id, every rank's listen address, and this rank's own
// pre-bound listener (whose address is Addrs[Rank]).
type RemoteEnv struct {
	Rank     int
	Size     int
	Session  uint64
	Addrs    []string
	Listener net.Listener
}

// RunRemote runs this process's single rank of a multi-process tcp session:
// it meshes with the peer processes, executes fn, and tears the endpoint
// down. The returned Stats hold this process's view (its own rank's sends);
// use GlobalStats inside fn for the aggregated matrix. The session is always
// watchful: a dead peer process surfaces as a typed *FaultError instead of a
// hang, and the first local failure is broadcast to peers as an abort frame.
func RunRemote(env RemoteEnv, cfg Config, fn func(c *Comm) error) (*Stats, error) {
	if env.Size <= 0 || env.Rank < 0 || env.Rank >= env.Size {
		return nil, fmt.Errorf("comm: RunRemote rank %d / size %d invalid", env.Rank, env.Size)
	}
	if len(env.Addrs) != env.Size || env.Listener == nil {
		return nil, fmt.Errorf("comm: RunRemote needs %d peer addresses and a bound listener", env.Size)
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.validate(env.Size); err != nil {
			return nil, err
		}
	}
	reg := newRegistry()
	fs := newFailState(reg)
	owner := make([]int, env.Size)
	for i := range owner {
		owner[i] = i
	}
	f := &fabric{
		ctx:         worldCtx,
		size:        env.Size,
		owner:       owner,
		reg:         reg,
		sess:        newSession(),
		stats:       newStats(env.Size),
		model:       cfg.Model,
		plan:        cfg.Faults,
		fs:          fs,
		recvTimeout: resolveRecvTimeout(cfg),
		watchful:    true,
		remote:      true,
		perProc:     true,
	}
	ep := &tcpEndpoint{
		rank: env.Rank, size: env.Size, session: env.Session,
		reg: reg, fs: fs, ln: env.Listener, conns: make([]*tcpConn, env.Size),
	}
	if err := ep.mesh(env.Addrs); err != nil {
		return nil, fmt.Errorf("comm: RunRemote rank %d: %w", env.Rank, err)
	}
	ep.start()
	fs.setNotify(ep.broadcastAbort)
	var runErr error
	func() {
		c := &Comm{rank: env.Rank, size: env.Size, f: f, tr: ep, box: reg.box(worldCtx, env.Rank)}
		defer func() {
			if p := recover(); p != nil {
				if fe, ok := p.(*FaultError); ok {
					runErr = fe
				} else {
					runErr = fmt.Errorf("comm: rank %d panicked: %v", env.Rank, p)
				}
				f.abortPeers(env.Rank, runErr)
			}
		}()
		runErr = fn(c)
		if runErr != nil {
			f.abortPeers(env.Rank, runErr)
		}
	}()
	ep.Close()
	return f.stats, runErr
}
