package kvstore

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"mummi/internal/retry"
)

// ---------------------------------------------------------------------------
// Engine

func TestEngineBasics(t *testing.T) {
	e := NewEngine()
	e.Set("a", []byte("1"))
	v, err := e.Get("a")
	if err != nil || string(v) != "1" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := e.Get("missing"); !errors.Is(err, ErrNoSuchKey) {
		t.Errorf("missing Get = %v", err)
	}
	if !e.Exists("a") || e.Exists("b") {
		t.Error("Exists wrong")
	}
	if n := e.Del("a", "b"); n != 1 {
		t.Errorf("Del = %d, want 1", n)
	}
	if e.Size() != 0 {
		t.Errorf("Size = %d", e.Size())
	}
}

func TestEngineKeysPatterns(t *testing.T) {
	e := NewEngine()
	for _, k := range []string{"rdf:new:1", "rdf:new:2", "rdf:done:1", "other"} {
		e.Set(k, nil)
	}
	if ks := e.Keys("rdf:new:*"); len(ks) != 2 || ks[0] != "rdf:new:1" {
		t.Errorf("prefix scan = %v", ks)
	}
	if ks := e.Keys("other"); len(ks) != 1 {
		t.Errorf("exact scan = %v", ks)
	}
	if ks := e.Keys("*"); len(ks) != 4 {
		t.Errorf("full scan = %v", ks)
	}
	if ks := e.Keys("zzz*"); len(ks) != 0 {
		t.Errorf("no-match scan = %v", ks)
	}
}

func TestEngineRename(t *testing.T) {
	e := NewEngine()
	e.Set("new:f1", []byte("rdf"))
	if err := e.Rename("new:f1", "done:f1"); err != nil {
		t.Fatal(err)
	}
	if e.Exists("new:f1") {
		t.Error("source survived rename")
	}
	v, _ := e.Get("done:f1")
	if string(v) != "rdf" {
		t.Errorf("renamed value = %q", v)
	}
	if err := e.Rename("new:f1", "x"); !errors.Is(err, ErrNoSuchKey) {
		t.Errorf("rename missing = %v", err)
	}
}

func TestEngineMGetAndFlush(t *testing.T) {
	e := NewEngine()
	e.Set("a", []byte("1"))
	e.Set("c", []byte("3"))
	got := e.MGet("a", "b", "c")
	if string(got[0]) != "1" || got[1] != nil || string(got[2]) != "3" {
		t.Errorf("MGet = %v", got)
	}
	e.Flush()
	if e.Size() != 0 {
		t.Error("Flush left keys")
	}
}

func TestEngineValueIsolation(t *testing.T) {
	e := NewEngine()
	src := []byte("abc")
	e.Set("k", src)
	src[0] = 'X'
	v, _ := e.Get("k")
	if string(v) != "abc" {
		t.Error("engine aliased caller slice")
	}
	v[0] = 'Y'
	v2, _ := e.Get("k")
	if string(v2) != "abc" {
		t.Error("engine aliased returned slice")
	}
}

func TestPropertyEngineMatchesMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		model := map[string]string{}
		keys := []string{"k0", "k1", "k2", "k3", "k4"}
		for i := 0; i < 200; i++ {
			k := keys[rng.Intn(len(keys))]
			switch rng.Intn(3) {
			case 0:
				v := fmt.Sprintf("v%d", i)
				e.Set(k, []byte(v))
				model[k] = v
			case 1:
				_, inModel := model[k]
				if (e.Del(k) == 1) != inModel {
					return false
				}
				delete(model, k)
			case 2:
				dst := keys[rng.Intn(len(keys))] + "-r"
				v, inModel := model[k]
				err := e.Rename(k, dst)
				if (err == nil) != inModel {
					return false
				}
				if inModel {
					delete(model, k)
					model[dst] = v
				}
			}
		}
		if e.Size() != len(model) {
			return false
		}
		for k, v := range model {
			got, err := e.Get(k)
			if err != nil || string(got) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// ---------------------------------------------------------------------------
// Protocol

func TestProtoCommandRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeCommand(w, []byte("SET"), []byte("key"), []byte("val\r\nwith crlf")); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	args, err := readCommand(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(args) != 3 || string(args[2]) != "val\r\nwith crlf" {
		t.Errorf("args = %q", args)
	}
}

func TestProtoReplyKinds(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	writeSimple(w, "OK")
	writeError(w, "boom")
	writeInt(w, -7)
	writeBulk(w, []byte("data"))
	writeBulk(w, nil)
	writeArray(w, [][]byte{[]byte("a"), nil, []byte("c")})
	w.Flush()
	r := bufio.NewReader(&buf)

	rep, _ := readReply(r)
	if rep.kind != '+' || rep.str != "OK" {
		t.Errorf("simple = %+v", rep)
	}
	rep, _ = readReply(r)
	if rep.kind != '-' || !strings.Contains(rep.str, "boom") {
		t.Errorf("error = %+v", rep)
	}
	rep, _ = readReply(r)
	if rep.kind != ':' || rep.n != -7 {
		t.Errorf("int = %+v", rep)
	}
	rep, _ = readReply(r)
	if rep.kind != '$' || string(rep.bulk) != "data" {
		t.Errorf("bulk = %+v", rep)
	}
	rep, _ = readReply(r)
	if rep.kind != '$' || rep.bulk != nil {
		t.Errorf("nil bulk = %+v", rep)
	}
	rep, _ = readReply(r)
	if rep.kind != '*' || len(rep.array) != 3 || rep.array[1] != nil {
		t.Errorf("array = %+v", rep)
	}
}

func TestProtoMalformedInput(t *testing.T) {
	bad := []string{
		"",                 // empty
		"hello\r\n",        // not an array
		"*x\r\n",           // bad count
		"*1\r\nhi\r\n",     // element not bulk
		"*1\r\n$5\r\nab",   // truncated
		"*1\r\n$-5\r\n",    // negative bulk in request
		"*99999999999\r\n", // over max
	}
	for _, s := range bad {
		if _, err := readCommand(bufio.NewReader(strings.NewReader(s))); err == nil {
			t.Errorf("readCommand(%q) succeeded", s)
		}
	}
}

// TestReadCommandBoundsPrealloc sends a request header declaring a huge
// argument count and nothing else: the count is client-supplied, so it
// must not size an allocation before any argument arrives.
func TestReadCommandBoundsPrealloc(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := readCommand(bufio.NewReader(strings.NewReader("*67108864\r\n"))); err == nil {
		t.Fatal("truncated command accepted")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
		t.Fatalf("header-only request allocated %d bytes", got)
	}
}

func TestPropertyProtoRoundTrip(t *testing.T) {
	f := func(parts [][]byte) bool {
		if len(parts) == 0 {
			return true // empty command arrays are invalid by protocol
		}
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := writeCommand(w, parts...); err != nil {
			return false
		}
		w.Flush()
		got, err := readCommand(bufio.NewReader(&buf))
		if err != nil {
			return false
		}
		if len(got) != len(parts) {
			return false
		}
		for i := range parts {
			if !bytes.Equal(got[i], parts[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// ---------------------------------------------------------------------------
// Server + Client over TCP

func startServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	s := NewServer(nil)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return s, c
}

func TestClientServerBasics(t *testing.T) {
	_, c := startServer(t)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("frame:1", []byte("rdf-bytes")); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get("frame:1")
	if err != nil || string(v) != "rdf-bytes" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := c.Get("absent"); !errors.Is(err, ErrNoSuchKey) {
		t.Errorf("absent Get = %v", err)
	}
	n, err := c.Del("frame:1", "absent")
	if err != nil || n != 1 {
		t.Fatalf("Del = %d, %v", n, err)
	}
}

func TestClientKeysRenameDBSize(t *testing.T) {
	_, c := startServer(t)
	for i := 0; i < 5; i++ {
		if err := c.Set(fmt.Sprintf("new:%d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	ks, err := c.Keys("new:*")
	if err != nil || len(ks) != 5 {
		t.Fatalf("Keys = %v, %v", ks, err)
	}
	if err := c.Rename("new:0", "done:0"); err != nil {
		t.Fatal(err)
	}
	if err := c.Rename("new:0", "x"); !errors.Is(err, ErrNoSuchKey) {
		t.Errorf("rename missing = %v", err)
	}
	n, err := c.DBSize()
	if err != nil || n != 5 {
		t.Fatalf("DBSize = %d, %v", n, err)
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if n, _ := c.DBSize(); n != 0 {
		t.Errorf("DBSize after flush = %d", n)
	}
}

func TestClientMGet(t *testing.T) {
	_, c := startServer(t)
	c.Set("a", []byte("1"))
	c.Set("c", []byte("3"))
	vals, err := c.MGet("a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	if string(vals[0]) != "1" || vals[1] != nil || string(vals[2]) != "3" {
		t.Errorf("MGet = %v", vals)
	}
}

func TestClientPipelines(t *testing.T) {
	_, c := startServer(t)
	kv := map[string][]byte{}
	for i := 0; i < 100; i++ {
		kv[fmt.Sprintf("k%03d", i)] = []byte(fmt.Sprintf("v%d", i))
	}
	if err := c.PipelineSet(kv); err != nil {
		t.Fatal(err)
	}
	n, err := c.DBSize()
	if err != nil || n != 100 {
		t.Fatalf("DBSize = %d, %v", n, err)
	}
	pairs := make([][2]string, 0, 50)
	for i := 0; i < 50; i++ {
		pairs = append(pairs, [2]string{fmt.Sprintf("k%03d", i), fmt.Sprintf("done:k%03d", i)})
	}
	ok, err := c.PipelineRename(pairs)
	if err != nil || ok != 50 {
		t.Fatalf("PipelineRename = %d, %v", ok, err)
	}
	keys := make([]string, 0, 50)
	for i := 50; i < 100; i++ {
		keys = append(keys, fmt.Sprintf("k%03d", i))
	}
	deleted, err := c.PipelineDel(keys)
	if err != nil || deleted != 50 {
		t.Fatalf("PipelineDel = %d, %v", deleted, err)
	}
	left, _ := c.Keys("k*")
	if len(left) != 0 {
		t.Errorf("undeleted keys: %v", left)
	}
}

func TestServerUnknownCommand(t *testing.T) {
	_, c := startServer(t)
	rep, err := c.do([]byte("BOGUS"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.kind != '-' {
		t.Errorf("unknown command reply = %+v", rep)
	}
	// Connection must remain usable after a command error.
	if err := c.Ping(); err != nil {
		t.Errorf("connection dead after error reply: %v", err)
	}
}

func TestServerWrongArity(t *testing.T) {
	_, c := startServer(t)
	for _, cmd := range [][][]byte{
		{[]byte("SET"), []byte("k")},
		{[]byte("GET")},
		{[]byte("DEL")},
		{[]byte("RENAME"), []byte("a")},
		{[]byte("KEYS")},
		{[]byte("EXISTS")},
		{[]byte("MGET")},
		{[]byte("MSET"), []byte("k")},
		{[]byte("MSET"), []byte("k"), []byte("v"), []byte("dangling")},
	} {
		rep, err := c.do(cmd...)
		if err != nil {
			t.Fatal(err)
		}
		if rep.kind != '-' {
			t.Errorf("%s with wrong arity: %+v", cmd[0], rep)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	s, _ := startServer(t)
	addr := s.Addr()
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < 50; i++ {
				k := fmt.Sprintf("w%d:%d", w, i)
				if err := c.Set(k, []byte(k)); err != nil {
					errs <- err
					return
				}
				v, err := c.Get(k)
				if err != nil || string(v) != k {
					errs <- fmt.Errorf("get %s = %q, %v", k, v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if s.Engine().Size() != workers*50 {
		t.Errorf("Size = %d", s.Engine().Size())
	}
	if s.Commands() < int64(workers*100) {
		t.Errorf("Commands = %d", s.Commands())
	}
}

func TestClientReconnectsAfterServerRestart(t *testing.T) {
	// Resilience (§4.4): communication redundancy — a dropped connection is
	// retried transparently once the server is back.
	e := NewEngine()
	s1 := NewServer(e)
	addr, err := s1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	s1.Close()
	// Restart on the same address with the same engine (state survives, as
	// with Redis persistence).
	s2 := NewServer(e)
	if _, err := s2.Listen(addr); err != nil {
		t.Fatalf("rebind: %v", err)
	}
	defer s2.Close()
	v, err := c.Get("k")
	if err != nil || string(v) != "v" {
		t.Fatalf("Get after restart = %q, %v", v, err)
	}
	if c.Retries() == 0 {
		t.Error("Retries = 0 after a forced reconnect")
	}
}

func TestClientRetryBudgetExhausted(t *testing.T) {
	// When the server stays down, the client gives up after the policy's
	// attempt budget instead of hanging — and reports how hard it tried.
	e := NewEngine()
	s := NewServer(e)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialPolicy(addr, retry.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, Jitter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	s.Close() // server gone for good
	if err := c.Ping(); err == nil {
		t.Fatal("Ping succeeded against a dead server")
	}
	if got := c.Retries(); got != 2 {
		t.Errorf("Retries = %d, want 2 (3 attempts = 1 try + 2 retries)", got)
	}
	// A closed client fails fast: no retries against a nil connection.
	before := c.Retries()
	c.Close()
	if err := c.Ping(); err == nil {
		t.Fatal("Ping succeeded on a closed client")
	}
	if got := c.Retries(); got != before {
		t.Errorf("closed client retried: %d -> %d", before, got)
	}
}

// ---------------------------------------------------------------------------
// Cluster

func startCluster(t *testing.T, n int) *Cluster {
	t.Helper()
	addrs, shutdown, err := LaunchCluster(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(shutdown)
	c, err := DialCluster(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestClusterSpreadsKeys(t *testing.T) {
	c := startCluster(t, 4)
	kv := map[string][]byte{}
	for i := 0; i < 200; i++ {
		kv[fmt.Sprintf("frame:%04d", i)] = []byte("x")
	}
	if err := c.MSet(kv); err != nil {
		t.Fatal(err)
	}
	total, err := c.Size()
	if err != nil || total != 200 {
		t.Fatalf("Size = %d, %v", total, err)
	}
	// Every shard should own a nontrivial share under ring hashing.
	for i := range c.shards {
		rep, err := c.doOnShard(i, "", []byte("DBSIZE"))
		if err != nil {
			t.Fatal(err)
		}
		if rep.n < 20 {
			t.Errorf("shard %d owns only %d/200 keys", i, rep.n)
		}
	}
}

func TestClusterScanAndMGet(t *testing.T) {
	c := startCluster(t, 3)
	want := map[string][]byte{}
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("rdf:new:%03d", i)
		want[k] = []byte(fmt.Sprintf("payload-%d", i))
	}
	if err := c.MSet(want); err != nil {
		t.Fatal(err)
	}
	keys, err := c.Keys("rdf:new:*")
	if err != nil || len(keys) != 50 {
		t.Fatalf("Keys = %d, %v", len(keys), err)
	}
	got, err := c.MGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mapKeysOnly(got), mapKeysOnly(want)) {
		t.Error("MGet returned different key set")
	}
	for k, v := range want {
		if !bytes.Equal(got[k], v) {
			t.Errorf("value mismatch at %s", k)
		}
	}
}

func TestClusterRenameAcrossNodes(t *testing.T) {
	c := startCluster(t, 5)
	// Rename many keys; hashing guarantees some pairs straddle nodes.
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("new:%d", i)
		if err := c.Set(k, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := c.Rename(k, fmt.Sprintf("done:%d", i)); err != nil {
			t.Fatalf("Rename(%s): %v", k, err)
		}
	}
	newKeys, _ := c.Keys("new:*")
	doneKeys, _ := c.Keys("done:*")
	if len(newKeys) != 0 || len(doneKeys) != 40 {
		t.Errorf("new=%d done=%d", len(newKeys), len(doneKeys))
	}
	v, err := c.Get("done:7")
	if err != nil || string(v) != "v7" {
		t.Errorf("Get(done:7) = %q, %v", v, err)
	}
}

func TestClusterDelAndFlush(t *testing.T) {
	c := startCluster(t, 3)
	var keys []string
	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("k%d", i)
		keys = append(keys, k)
		c.Set(k, []byte("x"))
	}
	n, err := c.Del(keys[:20]...)
	if err != nil || n != 20 {
		t.Fatalf("Del = %d, %v", n, err)
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if total, _ := c.Size(); total != 0 {
		t.Errorf("Size after flush = %d", total)
	}
}

func TestDialClusterErrors(t *testing.T) {
	if _, err := DialCluster(nil); err == nil {
		t.Error("empty cluster accepted")
	}
	if _, err := DialCluster([]string{"127.0.0.1:1"}); err == nil {
		t.Error("unreachable cluster accepted")
	}
}

func mapKeysOnly[V any](m map[string]V) map[string]bool {
	out := make(map[string]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}

func TestClusterNodesAndServerAddr(t *testing.T) {
	c := startCluster(t, 4)
	if c.Nodes() != 4 {
		t.Errorf("Nodes = %d", c.Nodes())
	}
	s := NewServer(nil)
	if s.Addr() != "" {
		t.Error("Addr before Listen should be empty")
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Addr() != addr {
		t.Errorf("Addr = %q, want %q", s.Addr(), addr)
	}
}

func TestSaveFileFailurePaths(t *testing.T) {
	e := NewEngine()
	e.Set("k", []byte("v"))
	if err := e.SaveFile("/nonexistent-dir/snapshot.mkv"); err == nil {
		t.Error("SaveFile into missing directory succeeded")
	}
}

func TestServerMSet(t *testing.T) {
	s, c := startServer(t)
	rep, err := c.do([]byte("MSET"),
		[]byte("m:1"), []byte("v1"),
		[]byte("m:2"), []byte("v2"),
		[]byte("m:3"), []byte("v3"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.kind != '+' || rep.str != "OK" {
		t.Fatalf("MSET reply = %+v", rep)
	}
	for i := 1; i <= 3; i++ {
		k := fmt.Sprintf("m:%d", i)
		v, err := s.Engine().Get(k)
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Errorf("Get(%s) = %q, %v", k, v, err)
		}
	}
}

func TestClusterSliceAPIs(t *testing.T) {
	c := startCluster(t, 3)
	keys := make([]string, 100)
	vals := make([][]byte, 100)
	for i := range keys {
		keys[i] = fmt.Sprintf("slice:%03d", i)
		vals[i] = []byte(fmt.Sprintf("payload-%03d", i))
	}
	if err := c.MSetSlice(keys, vals); err != nil {
		t.Fatal(err)
	}
	// Positional results, with a missing key yielding a nil entry in place.
	probe := append([]string{"slice:no-such-key"}, keys...)
	got, err := c.MGetSlice(probe)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(probe) {
		t.Fatalf("MGetSlice returned %d values for %d keys", len(got), len(probe))
	}
	if got[0] != nil {
		t.Errorf("missing key returned %q", got[0])
	}
	for i, k := range keys {
		if !bytes.Equal(got[i+1], vals[i]) {
			t.Errorf("value mismatch at %s: %q", k, got[i+1])
		}
	}
	if err := c.MSetSlice(keys[:2], vals[:1]); err == nil {
		t.Error("mismatched keys/vals lengths accepted")
	}
}

func TestWrapConnHook(t *testing.T) {
	s, _ := startServer(t)
	var wrapped atomic.Int32
	opts := ClientOptions{WrapConn: func(conn net.Conn) net.Conn {
		wrapped.Add(1)
		return conn
	}}
	c, err := DialOptions(s.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set("w", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if wrapped.Load() == 0 {
		t.Error("WrapConn never invoked for the sync client")
	}
	a, err := DialAsync(s.Addr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	rep, err := a.Do("w2", []byte("SET"), []byte("w2"), []byte("2"))
	if err != nil || rep.kind != '+' {
		t.Fatalf("async SET through wrapped conn = %+v, %v", rep, err)
	}
	if int(wrapped.Load()) < 2 {
		t.Error("WrapConn never invoked for the async pool")
	}
}

// A scatter burst larger than the in-flight window must not deadlock:
// the writer has to flush buffered commands before blocking on a window
// slot, or the replies that would free the window can never arrive.
// Regression test for a pipelining deadlock hit by Fig7KVQueries
// (hundreds of single-key DELs on one shard against the default window).
func TestBurstLargerThanWindow(t *testing.T) {
	addrs, shutdown, err := LaunchCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(shutdown)
	c, err := DialClusterOptions(addrs, ClientOptions{PoolSize: 1, Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	const n = 600 // per-shard bursts of ~300 single-key commands, window 8
	keys := make([]string, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("burst:%04d", i)
		vals[i] = []byte("v")
	}
	done := make(chan error, 1)
	go func() {
		if err := c.MSetSlice(keys, vals); err != nil {
			done <- err
			return
		}
		deleted, err := c.Del(keys...)
		if err == nil && deleted != n {
			err = fmt.Errorf("deleted %d of %d", deleted, n)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("burst larger than window deadlocked")
	}
}
