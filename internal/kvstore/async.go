package kvstore

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"time"
)

// AsyncClient is the pipelined replacement for the single-lock Client on
// throughput-critical paths. The old client serializes every caller behind
// one mutex and pays one full round trip per command; under the four
// concurrent WM tasks that means the feedback loop advances one RTT at a
// time. The AsyncClient decouples submission from completion:
//
//   - each connection has a dedicated writer goroutine and reader
//     goroutine. The writer drains queued requests, coalesces everything
//     currently waiting into a single buffered write + flush, and the
//     reader completes replies in FIFO wire order — so N concurrent
//     callers share round trips instead of queueing for them;
//   - an in-flight window (ClientOptions.Window) bounds outstanding
//     requests per connection, providing backpressure instead of
//     unbounded memory growth when the server stalls;
//   - a small connection pool (ClientOptions.PoolSize) multiplies the
//     window. Requests carry an affinity key and all requests with the
//     same key ride the same connection, so per-key operation order is
//     exactly submission order end to end.
//
// A broken connection fails its outstanding and subsequent requests with
// the underlying error; recovery (redial and retry) is the cluster
// layer's job.
type AsyncClient struct {
	addr string
	opts ClientOptions

	mu     sync.RWMutex
	pipes  []*pipe
	closed bool
}

// errClientClosed is returned for submissions after Close.
var errClientClosed = errors.New("kvstore: client closed")

// DialAsync opens a pipelined client with opts.PoolSize connections to
// addr. Dial failures close any connections already opened.
func DialAsync(addr string, opts ClientOptions) (*AsyncClient, error) {
	opts = opts.withDefaults()
	a := &AsyncClient{addr: addr, opts: opts}
	for i := 0; i < opts.PoolSize; i++ {
		p, err := newPipe(addr, opts)
		if err != nil {
			return nil, errors.Join(err, a.Close())
		}
		a.pipes = append(a.pipes, p)
	}
	return a, nil
}

// Addr returns the remote address the client was dialed against.
func (a *AsyncClient) Addr() string { return a.addr }

// Do submits one command and blocks for its reply. affinity selects the
// pool connection: commands sharing an affinity key are executed in
// submission order. An empty affinity pins to the first connection.
func (a *AsyncClient) Do(affinity string, args ...[]byte) (*reply, error) {
	c, err := a.submit(affinity, args...)
	if err != nil {
		return nil, err
	}
	return c.wait()
}

// submit enqueues one command without waiting. The returned call completes
// when the reply (or a transport error) arrives.
//
// The send happens outside a.mu: holding even the read lock across a
// channel send means one stalled pipe (full window, dead server) wedges
// Close — and, because a pending writer blocks new RLocks, every other
// pipe's submitters with it. Instead each submitter registers on the
// pipe's submitter count under the read lock; pipe.close waits for that
// count to drain before closing reqCh, so the send can never race the
// close. The Add happens-before Close's write lock, so a submitter that
// passed the closed check is always awaited.
func (a *AsyncClient) submit(affinity string, args ...[]byte) (*call, error) {
	c := &call{args: args, done: make(chan struct{})}
	a.mu.RLock()
	if a.closed {
		a.mu.RUnlock()
		return nil, errClientClosed
	}
	p := a.pipes[a.pick(affinity)]
	p.subWg.Add(1)
	a.mu.RUnlock()
	p.reqCh <- c
	p.subWg.Done()
	return c, nil
}

// pick maps an affinity key onto a pool connection, allocation-free.
func (a *AsyncClient) pick(affinity string) int {
	if affinity == "" || len(a.pipes) == 1 {
		return 0
	}
	return int(fnv64a(affinity) % uint64(len(a.pipes)))
}

// Close tears down every connection and fails outstanding requests.
func (a *AsyncClient) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	pipes := a.pipes
	a.mu.Unlock()
	var first error
	for _, p := range pipes {
		if err := p.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ---------------------------------------------------------------------------
// pipe: one pipelined connection

// call is one in-flight request: arguments on the way out, a reply or
// error on the way back, with done closed at completion.
type call struct {
	args [][]byte
	rep  *reply
	err  error
	done chan struct{}
}

func (c *call) fail(err error) {
	c.err = err
	close(c.done)
}

func (c *call) wait() (*reply, error) {
	<-c.done
	return c.rep, c.err
}

// pipe is one connection with its writer/reader goroutine pair. The writer
// owns the buffered writer, the reader owns the buffered reader, and the
// inflight channel carries calls between them in wire order; its capacity
// is the in-flight window, so a full window blocks the writer (and
// transitively submitters) until replies drain — bounded pipelining.
type pipe struct {
	conn     net.Conn
	w        *bufio.Writer
	r        *bufio.Reader
	reqCh    chan *call
	inflight chan *call
	opts     ClientOptions
	wg       sync.WaitGroup
	// subWg counts submitters currently sending on reqCh (registered under
	// the client's read lock); close waits for it before closing reqCh.
	subWg sync.WaitGroup

	errMu  sync.Mutex
	broken error
}

func newPipe(addr string, opts ClientOptions) (*pipe, error) {
	conn, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	tuneConn(conn)
	if opts.WrapConn != nil {
		conn = opts.WrapConn(conn)
	}
	p := &pipe{
		conn:     conn,
		w:        bufio.NewWriterSize(conn, ioBufSize),
		r:        bufio.NewReaderSize(conn, ioBufSize),
		reqCh:    make(chan *call, opts.Window),
		inflight: make(chan *call, opts.Window),
		opts:     opts,
	}
	p.wg.Add(2)
	go p.writeLoop()
	go p.readLoop()
	return p, nil
}

// markBroken records the first transport error and closes the socket so
// the peer goroutine unblocks; all later calls fail with this error. The
// close happens after errMu is released — a socket teardown can block, and
// loadErr is on the per-command hot path.
func (p *pipe) markBroken(err error) {
	p.errMu.Lock()
	first := p.broken == nil
	if first {
		p.broken = err
	}
	p.errMu.Unlock()
	if first {
		p.conn.Close() // best-effort: already failing with the first transport error
	}
}

func (p *pipe) loadErr() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.broken
}

// writeLoop drains submissions: it blocks for the first queued call, then
// coalesces everything else currently waiting into the same buffered
// write, and flushes once — concurrent callers therefore share a single
// syscall and a single server wakeup per burst, which is where the
// pipelined throughput comes from.
func (p *pipe) writeLoop() {
	defer p.wg.Done()
	defer close(p.inflight)
	for c := range p.reqCh {
		p.writeOne(c)
		// Coalesce the rest of the burst without blocking.
		for more := true; more; {
			select {
			case c2, ok := <-p.reqCh:
				if !ok {
					more = false
					break
				}
				p.writeOne(c2)
			default:
				more = false
			}
		}
		p.flush()
	}
}

// writeOne reserves a window slot and buffers one command. When the
// window is full it flushes before blocking on the slot: the replies
// that free window slots can only arrive for commands that actually
// reached the wire, so holding them buffered while waiting would
// deadlock any burst larger than the window.
func (p *pipe) writeOne(c *call) {
	if err := p.loadErr(); err != nil {
		c.fail(err)
		return
	}
	select {
	case p.inflight <- c:
	default:
		p.flush()
		p.inflight <- c
	}
	if err := writeCommand(p.w, c.args...); err != nil {
		p.markBroken(err)
	}
}

func (p *pipe) flush() {
	if p.loadErr() != nil {
		return
	}
	if p.opts.WriteTimeout > 0 {
		// Socket deadlines are wall-clock by nature; they bound I/O stalls
		// and never influence replayed state.
		//lint:allow determinism -- wall-clock socket deadline, invisible to replay state
		if err := p.conn.SetWriteDeadline(time.Now().Add(p.opts.WriteTimeout)); err != nil {
			p.markBroken(err)
			return
		}
	}
	if err := p.w.Flush(); err != nil {
		p.markBroken(err)
	}
}

// readLoop completes calls in wire order. On a read error it fails the
// current call, marks the pipe broken, and keeps draining so queued calls
// fail promptly instead of hanging.
func (p *pipe) readLoop() {
	defer p.wg.Done()
	for c := range p.inflight {
		if err := p.loadErr(); err != nil {
			c.fail(err)
			continue
		}
		if p.opts.ReadTimeout > 0 {
			//lint:allow determinism -- wall-clock socket deadline, invisible to replay state
			if err := p.conn.SetReadDeadline(time.Now().Add(p.opts.ReadTimeout)); err != nil {
				p.markBroken(err)
				c.fail(err)
				continue
			}
		}
		rep, err := readReply(p.r)
		if err != nil {
			p.markBroken(err)
			c.fail(err)
			continue
		}
		c.rep = rep
		close(c.done)
	}
}

// close shuts the pipe down: in-flight submitters drain (the client's
// closed flag stops new ones registering), reqCh closes so the writer
// exits, the reader completes or fails what is left, and both goroutines
// are joined before the socket result is returned. The socket close
// happens outside errMu, mirroring markBroken.
func (p *pipe) close() error {
	p.subWg.Wait()
	close(p.reqCh)
	p.wg.Wait()
	p.errMu.Lock()
	wasBroken := p.broken != nil
	if !wasBroken {
		p.broken = errClientClosed
	}
	p.errMu.Unlock()
	if wasBroken {
		return nil // socket already closed by markBroken
	}
	return p.conn.Close()
}
