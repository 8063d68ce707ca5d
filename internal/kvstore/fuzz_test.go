package kvstore

import (
	"bufio"
	"bytes"
	"testing"
)

// FuzzReadCommand feeds arbitrary bytes to the server's request parser —
// the bytes any client that connects can send. readCommand must never
// panic, and any command it accepts must survive writeCommand→readCommand
// with the same arguments.
func FuzzReadCommand(f *testing.F) {
	f.Add([]byte("*1\r\n$4\r\nPING\r\n"))
	f.Add([]byte("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$0\r\n\r\n"))
	f.Add([]byte("*2\r\n$1\r\na\r\n$-1\r\n"))
	f.Add([]byte("*67108864\r\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		args, err := readCommand(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := writeCommand(w, args...); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := readCommand(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("re-encoded command %q does not parse: %v", args, err)
		}
		if len(got) != len(args) {
			t.Fatalf("round trip: %d args, want %d", len(got), len(args))
		}
		for i := range args {
			if !bytes.Equal(got[i], args[i]) {
				t.Fatalf("round trip arg %d = %q, want %q", i, got[i], args[i])
			}
		}
	})
}
