package kvstore_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"mummi/internal/faults"
	"mummi/internal/feedback"
	"mummi/internal/kvstore"
	"mummi/internal/retry"
	"mummi/internal/sim"
	"mummi/internal/vclock"
)

// fastRetry keeps reconnect tests quick: real backoff sleeps, but tiny.
var fastRetry = retry.Policy{MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond, Jitter: -1}

// shardSet is a test cluster whose servers can be restarted in place.
type shardSet struct {
	t       *testing.T
	servers []*kvstore.Server
	addrs   []string
}

func startShards(t *testing.T, n int) *shardSet {
	t.Helper()
	ss := &shardSet{t: t}
	t.Cleanup(func() {
		for _, s := range ss.servers {
			s.Close()
		}
	})
	for i := 0; i < n; i++ {
		s := kvstore.NewServer(nil)
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ss.servers = append(ss.servers, s)
		ss.addrs = append(ss.addrs, addr)
	}
	return ss
}

// restart closes shard i's server — connections drop mid-stream, exactly
// like a node crash as far as clients can tell — and brings a new server
// up on the same address with the same engine, as a node restarting from
// its persisted keyspace would.
func (ss *shardSet) restart(i int) {
	ss.t.Helper()
	old := ss.servers[i]
	old.Close()
	s := kvstore.NewServer(old.Engine())
	if _, err := s.Listen(ss.addrs[i]); err != nil {
		ss.t.Fatalf("rebind shard %d: %v", i, err)
	}
	ss.servers[i] = s
}

func (ss *shardSet) dial() *kvstore.Cluster {
	ss.t.Helper()
	cl, err := kvstore.DialClusterOptions(ss.addrs, kvstore.ClientOptions{Retry: fastRetry})
	if err != nil {
		ss.t.Fatal(err)
	}
	ss.t.Cleanup(func() { cl.Close() })
	return cl
}

// TestFailoverMidMoveBatch restarts a shard node between two MoveBatch
// bursts — the second burst replays keys the first already moved, plus the
// keys that were still pending — and asserts zero lost renames: every key
// ends up in the destination namespace with its value intact. This is the
// at-least-once contract: a replayed rename of an already-moved key
// reports "no such key" and is skipped, never an error.
func TestFailoverMidMoveBatch(t *testing.T) {
	ss := startShards(t, 3)
	cl := ss.dial()
	st := kvstore.NewStore(cl)

	const n = 300
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("sel%04d", i)
		if err := st.Put("new", keys[i], []byte("v-"+keys[i])); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.MoveBatch("new", keys[:n/2], "done"); err != nil {
		t.Fatal(err)
	}
	ss.restart(1)
	if err := st.MoveBatch("new", keys, "done"); err != nil {
		t.Fatalf("MoveBatch across reconnect: %v", err)
	}

	left, err := st.Keys("new")
	if err != nil {
		t.Fatal(err)
	}
	done, err := st.Keys("done")
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 || len(done) != n {
		t.Fatalf("after reconnect: new=%d done=%d, want 0/%d — lost renames", len(left), len(done), n)
	}
	for _, k := range keys {
		v, err := st.Get("done", k)
		if err != nil || string(v) != "v-"+k {
			t.Fatalf("Get(done, %s) = %q, %v", k, v, err)
		}
	}
	if cl.Reconnects() == 0 {
		t.Error("no reconnect recorded despite a restarted shard")
	}
}

// TestFailoverSetGet covers the simple path: restart every shard node, then
// keep reading and writing through the same cluster handle.
func TestFailoverSetGet(t *testing.T) {
	ss := startShards(t, 2)
	cl := ss.dial()
	for i := 0; i < 50; i++ {
		if err := cl.Set(fmt.Sprintf("pre-%d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	for i := range ss.servers {
		ss.restart(i)
	}
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("pre-%d", i)
		v, err := cl.Get(k)
		if err != nil || string(v) != "x" {
			t.Fatalf("Get(%s) after restart = %q, %v", k, v, err)
		}
	}
	if err := cl.Set("post", []byte("y")); err != nil {
		t.Fatalf("Set after restart: %v", err)
	}
	if v, err := cl.Get("post"); err != nil || string(v) != "y" {
		t.Fatalf("Get(post) = %q, %v", v, err)
	}
	if cl.Reconnects() == 0 {
		t.Error("no reconnect recorded despite restarted shards")
	}
}

// ---------------------------------------------------------------------------
// Chaos campaign: feedback over a sharded cluster under NodeCrash faults

func chaosRDF(rng *rand.Rand, species int) [][]float32 {
	rdf := make([][]float32, species)
	for sp := range rdf {
		rdf[sp] = make([]float32, sim.RDFBins)
		for b := range rdf[sp] {
			rdf[sp][b] = float32(rng.Float64() * 2)
		}
	}
	return rdf
}

type chaosResult struct {
	couplings  [][]float64
	doneKeys   []string
	frames     int64
	kills      int
	reconnects int64
}

// runChaosCampaign produces CG frames into a kv-backed store, runs the
// CG→continuum feedback loop over them, and lets a seeded fault-injection
// engine crash and restart shard nodes on the virtual clock. All
// randomness (frame content, crash schedule, victim choice) derives from
// seed, so the resulting state is a pure function of it.
func runChaosCampaign(t *testing.T, seed int64) chaosResult {
	t.Helper()
	const shards, species, states = 3, 3, 2
	ss := startShards(t, shards)
	cl := ss.dial()
	st := kvstore.NewStore(cl)
	fb, err := feedback.NewCGToContinuum(feedback.CGConfig{
		Store: st, NewNS: "new", DoneNS: "done", Species: species, States: states,
	})
	if err != nil {
		t.Fatal(err)
	}

	clk := vclock.NewVirtual(time.Unix(0, 0).UTC())
	// NodeCrash at 2880/day = one expected crash per 30 virtual seconds.
	plan := &faults.Plan{Seed: seed, Rules: []faults.Rule{{Class: faults.NodeCrash, Rate: 2880}}}
	eng := faults.NewEngine(clk, nil, plan)
	kills := 0
	eng.SetHandler(faults.NodeCrash, func(_ faults.Rule, rng *rand.Rand) {
		victim := rng.Intn(shards)
		kills++
		ss.restart(victim)
		eng.Note(fmt.Sprintf("shard %d", victim))
	})
	eng.Start()

	rng := rand.New(rand.NewSource(seed))
	produced := 0
	for round := 0; round < 8; round++ {
		for i := 0; i < 40; i++ {
			f := &sim.CGFrame{SimID: "chaos", Index: produced, State: rng.Intn(states), RDF: chaosRDF(rng, species)}
			b, err := f.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Put("new", fmt.Sprintf("f%06d", produced), b); err != nil {
				t.Fatalf("round %d: Put: %v", round, err)
			}
			produced++
		}
		clk.RunFor(30 * time.Second) // crash events fire here
		if _, err := fb.Iterate(); err != nil {
			t.Fatalf("round %d: Iterate: %v", round, err)
		}
	}
	eng.Stop()

	doneKeys, err := st.Keys("done")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(doneKeys)
	left, err := st.Keys("new")
	if err != nil {
		t.Fatal(err)
	}
	// Conservation: every acknowledged frame is either aggregated-and-tagged
	// or still pending; none may vanish across node crashes.
	if len(doneKeys)+len(left) != produced {
		t.Fatalf("frames lost: done=%d new=%d produced=%d", len(doneKeys), len(left), produced)
	}
	if len(left) != 0 {
		t.Fatalf("%d frames left unprocessed after final iteration", len(left))
	}
	if fb.TotalFrames() != int64(produced) {
		t.Fatalf("aggregated %d frames, produced %d", fb.TotalFrames(), produced)
	}
	return chaosResult{
		couplings:  fb.Couplings(),
		doneKeys:   doneKeys,
		frames:     fb.TotalFrames(),
		kills:      kills,
		reconnects: cl.Reconnects(),
	}
}

// TestChaosFeedbackSurvivesPrimaryKills crashes shard nodes mid-feedback
// and requires the loop to complete with zero lost selections. Two
// same-seed runs must also produce byte-identical couplings and tagged key
// sets — the crash schedule, the frame stream, and every recovery are
// functions of the seed alone.
func TestChaosFeedbackSurvivesPrimaryKills(t *testing.T) {
	a := runChaosCampaign(t, 42)
	if a.kills == 0 {
		t.Fatal("chaos plan injected no node crashes; raise the rate")
	}
	if a.reconnects == 0 {
		t.Error("shard nodes crashed but the cluster recorded no reconnects")
	}
	b := runChaosCampaign(t, 42)
	if a.kills != b.kills {
		t.Errorf("same-seed runs injected %d vs %d crashes", a.kills, b.kills)
	}
	if a.frames != b.frames {
		t.Errorf("same-seed runs aggregated %d vs %d frames", a.frames, b.frames)
	}
	if !reflect.DeepEqual(a.doneKeys, b.doneKeys) {
		t.Error("same-seed runs tagged different key sets")
	}
	if !reflect.DeepEqual(a.couplings, b.couplings) {
		t.Error("same-seed runs produced different couplings")
	}
}
