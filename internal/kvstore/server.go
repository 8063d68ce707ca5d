package kvstore

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
)

// Server serves one Engine over TCP. One goroutine per connection, a
// buffered writer flushed once per request batch — the standard shape for a
// high-throughput in-memory store.
type Server struct {
	engine *Engine
	ln     net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// commands counts served commands for the Fig. 7 experiment.
	commands atomic.Int64
}

// NewServer wraps an engine (NewEngine() if nil).
func NewServer(engine *Engine) *Server {
	if engine == nil {
		engine = NewEngine()
	}
	return &Server{engine: engine, conns: make(map[net.Conn]struct{})}
}

// Engine returns the server's engine (shared with embedded users).
func (s *Server) Engine() *Engine { return s.engine }

// Listen binds addr ("127.0.0.1:0" for an ephemeral test port) and starts
// accepting connections. It returns the bound address immediately.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("kvstore: %w", err)
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		tuneConn(conn)
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// upperASCII uppercases the command name in place — the buffer is owned by
// this request (readCommand allocates fresh), so dispatch never pays a
// strings.ToUpper allocation.
func upperASCII(b []byte) {
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			b[i] = c - ('a' - 'A')
		}
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	r := bufio.NewReaderSize(conn, ioBufSize)
	w := bufio.NewWriterSize(conn, ioBufSize)
	for {
		args, err := readCommand(r)
		if err != nil {
			return
		}
		s.commands.Add(1)
		upperASCII(args[0])
		if err := s.dispatch(w, args); err != nil {
			return
		}
		// Flush only when no further pipelined request is already buffered:
		// this is what makes pipelined batches fast.
		if r.Buffered() == 0 {
			if err := w.Flush(); err != nil {
				return
			}
		}
	}
}

func (s *Server) dispatch(w *bufio.Writer, args [][]byte) error {
	e := s.engine
	switch string(args[0]) {
	case "PING":
		return writeSimple(w, "PONG")
	case "SET":
		if len(args) != 3 {
			return writeError(w, "wrong number of arguments for SET")
		}
		// Argument buffers are owned by this request; hand the value to the
		// engine without a second copy.
		e.setOwned(string(args[1]), args[2])
		return writeSimple(w, "OK")
	case "MSET":
		if len(args) < 3 || len(args)%2 != 1 {
			return writeError(w, "wrong number of arguments for MSET")
		}
		e.msetOwned(args[1:])
		return writeSimple(w, "OK")
	case "GET":
		if len(args) != 2 {
			return writeError(w, "wrong number of arguments for GET")
		}
		v, ok := e.getRef(args[1])
		if !ok {
			return writeBulk(w, nil)
		}
		return writeBulk(w, v)
	case "DEL":
		if len(args) < 2 {
			return writeError(w, "wrong number of arguments for DEL")
		}
		keys := make([]string, len(args)-1)
		for i, a := range args[1:] {
			keys[i] = string(a)
		}
		return writeInt(w, int64(e.Del(keys...)))
	case "EXISTS":
		if len(args) != 2 {
			return writeError(w, "wrong number of arguments for EXISTS")
		}
		if e.Exists(string(args[1])) {
			return writeInt(w, 1)
		}
		return writeInt(w, 0)
	case "KEYS":
		if len(args) != 2 {
			return writeError(w, "wrong number of arguments for KEYS")
		}
		ks := e.Keys(string(args[1]))
		items := make([][]byte, len(ks))
		for i, k := range ks {
			items[i] = []byte(k)
		}
		return writeArray(w, items)
	case "RENAME":
		if len(args) != 3 {
			return writeError(w, "wrong number of arguments for RENAME")
		}
		if err := e.Rename(string(args[1]), string(args[2])); err != nil {
			return writeError(w, "no such key")
		}
		return writeSimple(w, "OK")
	case "MGET":
		if len(args) < 2 {
			return writeError(w, "wrong number of arguments for MGET")
		}
		// Serialize references straight out of the engine — stored values
		// are immutable, so no per-key clone on the read path.
		return writeArray(w, e.mgetRef(args[1:]))
	case "DBSIZE":
		return writeInt(w, int64(e.Size()))
	case "FLUSHALL":
		e.Flush()
		return writeSimple(w, "OK")
	default:
		return writeError(w, "unknown command '"+sanitizeCmd(string(args[0]))+"'")
	}
}

func sanitizeCmd(c string) string {
	c = strings.Map(func(r rune) rune {
		if r < 0x20 || r > 0x7e {
			return '?'
		}
		return r
	}, c)
	if len(c) > 32 {
		c = c[:32]
	}
	return c
}

// Commands returns the number of commands served (all connections).
func (s *Server) Commands() int64 { return s.commands.Load() }

// Addr returns the listen address, or "" before Listen.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops accepting, closes every connection, and waits for handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	//lint:allow determinism -- teardown close order of live sockets is inherently unordered
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}
