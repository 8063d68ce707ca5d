package kvstore

import (
	"bufio"
	"errors"
	"io"
	"net"
	"strconv"
)

// The wire protocol is RESP (the Redis serialization protocol), restricted
// to the types mummi needs: requests are arrays of bulk strings; replies
// are simple strings, errors, integers, bulk strings (nil allowed), or
// arrays of bulk strings. Using the real wire format keeps the substitution
// honest: every query crosses a socket and pays serialization costs, like
// the paper's Redis deployment did.
//
// The encode/decode helpers here are deliberately allocation-lean: they sit
// inside the per-key loops of multi-key commands (MSET/MGET), where the
// feedback path's throughput is decided. Header lines are parsed in place
// from the reader's buffer, payloads are cloned with append (no redundant
// zeroing), and integers are formatted without fmt.

// maxBulkLen bounds a single value (64 MB), far above the ~850 B frame ids
// and ~KB RDF payloads the workflow stores, but low enough to stop a corrupt
// length prefix from allocating unbounded memory.
const maxBulkLen = 64 << 20

// maxPreallocArgs caps the argument slice readCommand sizes up front from
// a request's declared count. The count is client-supplied: trusting it
// would let an 11-byte header ("*67108864\r\n") allocate ~1.5 GB before a
// single argument arrives. Larger commands still parse; their slice grows
// as arguments actually arrive.
const maxPreallocArgs = 1 << 16

// ioBufSize is the buffered reader/writer size on every connection. Sized
// so a full 256-pair burst of ~850 B values (~220 KB) moves in one syscall
// per side — syscalls cost microseconds on the virtualized hosts this runs
// on, and amortizing them is a large share of the pipelined speedup.
const ioBufSize = 256 << 10

var errProtocol = errors.New("kvstore: protocol error")

// tuneConn widens the kernel socket buffers to the buffered-I/O size so a
// full multi-key burst moves with as few syscalls as possible — syscalls,
// not bandwidth, dominate loopback transfer cost on virtualized hosts.
// Best-effort: a kernel refusing the size just leaves the default.
func tuneConn(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetReadBuffer(ioBufSize)  //lint:allow errdiscipline -- best-effort socket tuning; defaults are correct, only slower
		tc.SetWriteBuffer(ioBufSize) //lint:allow errdiscipline -- best-effort socket tuning; defaults are correct, only slower
	}
}

// writeLenLine writes "<prefix><n>\r\n" as a single buffered write,
// without fmt. Appending into the writer's available buffer keeps the
// header bytes off the heap (the AvailableBuffer idiom) — this runs two to
// three times per key in a bulk command.
func writeLenLine(w *bufio.Writer, prefix byte, n int) error {
	line := append(w.AvailableBuffer(), prefix)
	line = strconv.AppendInt(line, int64(n), 10)
	line = append(line, '\r', '\n')
	_, err := w.Write(line)
	return err
}

func writeCommand(w *bufio.Writer, args ...[]byte) error {
	if err := writeLenLine(w, '*', len(args)); err != nil {
		return err
	}
	for _, a := range args {
		if err := writeLenLine(w, '$', len(a)); err != nil {
			return err
		}
		if _, err := w.Write(a); err != nil {
			return err
		}
		if _, err := w.WriteString("\r\n"); err != nil {
			return err
		}
	}
	return nil
}

// readLine returns one CRLF-terminated line as a view into the reader's
// buffer — valid only until the next read. Header lines are tiny (a type
// byte plus a decimal length), so ErrBufferFull cannot occur for well-formed
// input and is surfaced as a protocol error.
func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err != nil {
		if err == bufio.ErrBufferFull {
			return nil, errProtocol
		}
		return nil, err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, errProtocol
	}
	return line[: len(line)-2 : len(line)-2], nil
}

// parseLen parses a decimal length in place (no string conversion). Only
// -1 is accepted as a negative value (RESP nil).
func parseLen(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, errProtocol
	}
	if b[0] == '-' {
		if len(b) == 2 && b[1] == '1' {
			return -1, nil
		}
		return 0, errProtocol
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, errProtocol
		}
		n = n*10 + int(c-'0')
		if n > maxBulkLen {
			return 0, errProtocol
		}
	}
	return n, nil
}

// readBulkPayload reads ln payload bytes plus the trailing CRLF and returns
// an owned copy of the payload. The fast path clones straight out of the
// reader's buffer with append — no intermediate zeroed allocation — and
// falls back to a zeroed read buffer only when the payload exceeds the
// buffered window.
func readBulkPayload(r *bufio.Reader, ln int) ([]byte, error) {
	if view, err := r.Peek(ln + 2); err == nil {
		if view[ln] != '\r' || view[ln+1] != '\n' {
			return nil, errProtocol
		}
		buf := append(make([]byte, 0, ln), view[:ln]...)
		if _, err := r.Discard(ln + 2); err != nil {
			return nil, err
		}
		return buf, nil
	}
	buf := make([]byte, ln+2)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	if buf[ln] != '\r' || buf[ln+1] != '\n' {
		return nil, errProtocol
	}
	return buf[:ln:ln], nil
}

// readCommand reads one request array. Returns (nil, io.EOF) on clean close.
// The returned argument slices are freshly allocated and owned by the
// caller — the server hands them to the engine without copying.
func readCommand(r *bufio.Reader) ([][]byte, error) {
	line, err := readLine(r)
	if err != nil {
		return nil, err
	}
	if len(line) == 0 || line[0] != '*' {
		return nil, errProtocol
	}
	n, err := parseLen(line[1:])
	if err != nil || n < 1 {
		return nil, errProtocol
	}
	args := make([][]byte, 0, min(n, maxPreallocArgs))
	for i := 0; i < n; i++ {
		line, err := readLine(r)
		if err != nil {
			return nil, err
		}
		if len(line) == 0 || line[0] != '$' {
			return nil, errProtocol
		}
		ln, err := parseLen(line[1:])
		if err != nil || ln < 0 {
			return nil, errProtocol
		}
		buf, err := readBulkPayload(r, ln)
		if err != nil {
			return nil, err
		}
		args = append(args, buf)
	}
	return args, nil
}

// reply is a decoded RESP reply.
type reply struct {
	kind  byte // '+', '-', ':', '$', '*'
	str   string
	n     int64
	bulk  []byte // nil means RESP nil bulk
	array [][]byte
}

func readReply(r *bufio.Reader) (*reply, error) {
	line, err := readLine(r)
	if err != nil {
		return nil, err
	}
	if len(line) == 0 {
		return nil, errProtocol
	}
	rep := &reply{kind: line[0]}
	switch rep.kind {
	case '+', '-':
		rep.str = string(line[1:])
	case ':':
		rep.n, err = strconv.ParseInt(string(line[1:]), 10, 64)
		if err != nil {
			return nil, errProtocol
		}
	case '$':
		ln, err := parseLen(line[1:])
		if err != nil {
			return nil, err
		}
		if ln == -1 {
			rep.bulk = nil
			return rep, nil
		}
		buf, err := readBulkPayload(r, ln)
		if err != nil {
			return nil, err
		}
		rep.bulk = buf
		if rep.bulk == nil { // zero-length bulk: distinguish from nil
			rep.bulk = []byte{}
		}
	case '*':
		ln, err := parseLen(line[1:])
		if err != nil {
			return nil, err
		}
		if ln == -1 {
			return rep, nil
		}
		// Array elements are always bulk strings here; parse them inline
		// rather than recursing — no per-element reply allocation in the
		// MGET fast path.
		rep.array = make([][]byte, 0, ln)
		for i := 0; i < ln; i++ {
			el, err := readLine(r)
			if err != nil {
				return nil, err
			}
			if len(el) == 0 || el[0] != '$' {
				return nil, errProtocol
			}
			bln, err := parseLen(el[1:])
			if err != nil {
				return nil, err
			}
			if bln == -1 {
				rep.array = append(rep.array, nil)
				continue
			}
			buf, err := readBulkPayload(r, bln)
			if err != nil {
				return nil, err
			}
			rep.array = append(rep.array, buf)
		}
	default:
		return nil, errProtocol
	}
	return rep, nil
}

func writeSimple(w *bufio.Writer, s string) error {
	if err := w.WriteByte('+'); err != nil {
		return err
	}
	if _, err := w.WriteString(s); err != nil {
		return err
	}
	_, err := w.WriteString("\r\n")
	return err
}

func writeError(w *bufio.Writer, msg string) error {
	if _, err := w.WriteString("-ERR "); err != nil {
		return err
	}
	if _, err := w.WriteString(msg); err != nil {
		return err
	}
	_, err := w.WriteString("\r\n")
	return err
}

func writeInt(w *bufio.Writer, n int64) error {
	line := append(w.AvailableBuffer(), ':')
	line = strconv.AppendInt(line, n, 10)
	line = append(line, '\r', '\n')
	_, err := w.Write(line)
	return err
}

func writeBulk(w *bufio.Writer, b []byte) error {
	if b == nil {
		_, err := w.WriteString("$-1\r\n")
		return err
	}
	if err := writeLenLine(w, '$', len(b)); err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return err
	}
	_, err := w.WriteString("\r\n")
	return err
}

func writeArray(w *bufio.Writer, items [][]byte) error {
	if err := writeLenLine(w, '*', len(items)); err != nil {
		return err
	}
	for _, it := range items {
		if err := writeBulk(w, it); err != nil {
			return err
		}
	}
	return nil
}
