package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime/pprof"
	"sort"
	"time"

	"mummi/internal/datastore"
	"mummi/internal/feedback"
	"mummi/internal/kvstore"
	"mummi/internal/sim"
)

// The feedback-kv workload: the paper's CG→continuum feedback loop over the
// RESP kvstore on loopback. One pass launches a fresh cluster, then runs
// kvRounds rounds; each round writes kvFrames CG frames one Put at a time
// and runs one feedback Iterate (scan, batched fetch, decode and aggregate,
// batched tag). Processed frames stay in the done namespace, so each pass
// ends with kvRounds×kvFrames keys and scans grow as it goes.
const (
	kvNodes   = 2
	kvRounds  = 40
	kvFrames  = 500
	kvSims    = 50 // frames per round are spread over this many CG simulations
	kvSpecies = 8
	kvStates  = 3
	kvActive  = "cg-active"
	kvDone    = "cg-done"
)

// kvPass is what one pass measured.
type kvPass struct {
	rounds []kvRound
	puts   []float64 // seconds per Put
	frames int
}

type kvRound struct {
	use  delta // the round's Puts and Iterate
	iter time.Duration
}

// dialCluster launches the in-process cluster and connects to it: the
// workload's set-up.
func dialCluster() (*kvstore.Store, func(), error) {
	addrs, shutdown, err := kvstore.LaunchCluster(kvNodes)
	if err != nil {
		return nil, nil, err
	}
	cl, err := kvstore.DialClusterOptions(addrs, kvstore.ClientOptions{PoolSize: 1, FanoutWorkers: kvNodes})
	if err != nil {
		shutdown()
		return nil, nil, err
	}
	st := kvstore.NewStore(cl)
	return st, func() {
		st.Close() //lint:allow errdiscipline -- teardown of a loopback connection after the pass's checks
		shutdown()
	}, nil
}

// aggregate is the benchmark's own reference for the feedback manager's
// couplings: the mean first-shell RDF excess per (state, species).
type aggregate struct {
	sum   [kvStates][kvSpecies]float64
	count [kvStates][kvSpecies]int64
}

func (a *aggregate) add(f *sim.CGFrame) {
	for sp, rdf := range f.RDF {
		n := len(rdf) / 2
		var s float64
		for i := 0; i < n; i++ {
			s += float64(rdf[i]) - 1
		}
		v := s / float64(n)
		if v < 0 {
			v = 0
		}
		a.sum[f.State][sp] += v
		a.count[f.State][sp]++
	}
}

// mismatch compares the manager's couplings with the reference.
func (a *aggregate) mismatch(got [][]float64) error {
	for st := 0; st < kvStates; st++ {
		for sp := 0; sp < kvSpecies; sp++ {
			want := 0.1
			if a.count[st][sp] > 0 {
				want = a.sum[st][sp] / float64(a.count[st][sp])
			}
			if math.Abs(got[st][sp]-want) > 1e-9*math.Max(1, math.Abs(want)) {
				return fmt.Errorf("coupling[%d][%d] = %g, frames written give %g", st, sp, got[st][sp], want)
			}
		}
	}
	return nil
}

// kvInput is a pass's input, generated once per run from the seed: the
// frames of every round, marshalled, and the reference aggregate of them.
type kvInput struct {
	keys [][]string // [round][frame]
	vals [][][]byte
	ref  aggregate
}

func kvGenerate(seed int64) (*kvInput, error) {
	in := &kvInput{}
	rng := rand.New(rand.NewSource(seed))
	sims := make([]*sim.CGSim, kvSims)
	for i := range sims {
		fp := make([]float64, kvSpecies)
		for j := range fp {
			fp[j] = rng.Float64()
		}
		sims[i] = sim.NewCGSim(fmt.Sprintf("s%02d", i), kvSpecies, i%kvStates, fp, rng.Int63())
	}
	for round := 0; round < kvRounds; round++ {
		frames := make([]*sim.CGFrame, kvFrames)
		for i := range frames {
			frames[i] = sims[i%kvSims].NextFrame()
		}
		// The manager aggregates each round in sorted key order; so does
		// the reference.
		sort.Slice(frames, func(a, b int) bool { return frames[a].ID() < frames[b].ID() })
		keys := make([]string, kvFrames)
		vals := make([][]byte, kvFrames)
		for i, f := range frames {
			b, err := f.Marshal()
			if err != nil {
				return nil, err
			}
			keys[i], vals[i] = f.ID(), b
			in.ref.add(f)
		}
		in.keys = append(in.keys, keys)
		in.vals = append(in.vals, vals)
	}
	return in, nil
}

// kvPassOnce runs one pass on an already set-up cluster. A non-nil spans
// wraps the store with span timers.
func kvPassOnce(r *run, st *kvstore.Store, in *kvInput, spans *timedStore) (kvPass, error) {
	var p kvPass
	var store datastore.Store = st
	if spans != nil {
		spans.s = st
		store = spans
	}
	fb, err := feedback.NewCGToContinuum(feedback.CGConfig{
		Store: store, NewNS: kvActive, DoneNS: kvDone, Species: kvSpecies, States: kvStates,
	})
	if err != nil {
		return p, err
	}
	for round, keys := range in.keys {
		vals := in.vals[round]
		u := readUsage()
		for i := range keys {
			t := time.Now()
			err := store.Put(kvActive, keys[i], vals[i])
			p.puts = append(p.puts, time.Since(t).Seconds())
			r.attempted++
			if err != nil {
				r.fail("put %s: %v", keys[i], err)
			}
		}
		t := time.Now()
		rep, err := fb.Iterate()
		iter := time.Since(t)
		p.rounds = append(p.rounds, kvRound{use: since(u), iter: iter})
		r.attempted++
		if err != nil {
			r.fail("iterate: %v", err)
			continue
		}
		if rep.Frames != len(keys) {
			r.fail("round %d aggregated %d frames, %d were written", round, rep.Frames, len(keys))
		}
		p.frames += rep.Frames
	}
	checkKVEnd(r, st, fb, in)
	return p, nil
}

// checkKVEnd checks that every frame written was aggregated exactly once:
// the manager's frame count and couplings match the frames written, the
// active namespace is empty, and the done namespace holds every frame.
func checkKVEnd(r *run, st *kvstore.Store, fb *feedback.CGToContinuum, in *kvInput) {
	r.attempted++
	written := map[string]bool{}
	for _, keys := range in.keys {
		for _, k := range keys {
			written[k] = true
		}
	}
	if got := fb.TotalFrames(); got != int64(len(written)) {
		r.fail("aggregated %d frames, wrote %d", got, len(written))
		return
	}
	if err := in.ref.mismatch(fb.Couplings()); err != nil {
		r.fail("%v", err)
		return
	}
	active, err := st.Keys(kvActive)
	if err != nil || len(active) != 0 {
		r.fail("active namespace holds %d keys after the last round (err %v)", len(active), err)
		return
	}
	done, err := st.Keys(kvDone)
	if err != nil {
		r.fail("scan done namespace: %v", err)
		return
	}
	seen := 0
	for _, k := range done {
		if written[k] {
			seen++
		}
	}
	if seen != len(written) || len(done) != len(written) {
		r.fail("done namespace holds %d keys, %d of the %d written", len(done), seen, len(written))
	}
}

// feedbackKV measures whole passes until the budget is spent. Traced runs
// alternate untraced and traced passes.
func feedbackKV(seed int64, limit time.Duration, traced bool) (*run, error) {
	r := newRun()
	in, err := kvGenerate(seed)
	if err != nil {
		return nil, err
	}
	var setup float64
	if !traced {
		setup, err = timeSetups(func() (func(), error) {
			_, closeFn, err := dialCluster()
			return closeFn, err
		})
		if err != nil {
			return nil, err
		}
		r.samples["setups"] = setupRuns
	}
	var cpu layerCPU
	spans := &timedStore{}
	// pass sets up a fresh cluster and runs one pass on it; a traced pass
	// profiles the pass, not the set-up.
	pass := func(traced bool) (kvPass, error) {
		st, closeFn, err := dialCluster()
		if err != nil {
			return kvPass{}, err
		}
		defer closeFn()
		if !traced {
			return kvPassOnce(r, st, in, nil)
		}
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return kvPass{}, fmt.Errorf("cpu profile: %w", err)
		}
		p, err := kvPassOnce(r, st, in, spans)
		pprof.StopCPUProfile()
		if err != nil {
			return p, err
		}
		stacks, err := parseCPUProfile(prof.Bytes())
		if err != nil {
			return p, err
		}
		cpu.add(attribute(stacks))
		return p, nil
	}

	var plain, spanned []kvPass
	for b := newBudget(limit); b.more(); {
		sides := []bool{false}
		if traced {
			// Alternate which pass of a pair goes first, so that the
			// warmer process favours neither side of the overhead ratio.
			sides = []bool{len(plain)%2 == 1, len(plain)%2 == 0}
		}
		for _, withTrace := range sides {
			p, err := pass(withTrace)
			if err != nil {
				return nil, err
			}
			if withTrace {
				spanned = append(spanned, p)
			} else {
				plain = append(plain, p)
			}
		}
	}
	r.samples["passes"] = len(plain)
	r.samples["rounds"] = len(plain) * kvRounds
	if traced {
		kvLayers(r, plain, spanned, spans, cpu)
		return r, nil
	}

	var rates, walls, cpus, allocB, allocN []float64
	for _, p := range plain {
		for _, rd := range p.rounds {
			walls = append(walls, rd.use.wall.Seconds())
			cpus = append(cpus, rd.use.cpu.Seconds())
			allocB = append(allocB, float64(rd.use.allocB))
			allocN = append(allocN, float64(rd.use.allocObjs))
		}
		rates = append(rates, float64(p.frames)/passWall(p))
	}
	r.values["setup_s"] = setup
	r.values["work_per_s"] = median(rates)
	r.values["step_p50_ms"] = median(walls) * 1e3
	r.values["cpu_s"] = median(cpus)
	r.values["alloc_bytes"] = median(allocB)
	r.values["alloc_objects"] = median(allocN)
	r.values["max_rss_bytes"] = maxRSS()
	return r, nil
}

// kvLayers reports the traced passes' per-layer metrics: times per round
// and counts per pass, averaged over the traced passes.
func kvLayers(r *run, plain, spanned []kvPass, s *timedStore, cpu layerCPU) {
	n := float64(len(spanned))
	steps := n * kvRounds
	putLayerCPU(r, cpu, steps)
	var puts, iters, growth, plainWall, tracedWall []float64
	var frames, gc, iterTotal float64
	for _, p := range spanned {
		puts = append(puts, p.puts...)
		for _, rd := range p.rounds {
			iters = append(iters, rd.iter.Seconds())
			iterTotal += rd.iter.Seconds()
			gc += float64(rd.use.gcCycles)
		}
		frames += float64(p.frames)
		tracedWall = append(tracedWall, passWall(p))
	}
	for _, p := range plain {
		plainWall = append(plainWall, passWall(p))
	}
	for i := 0; i+kvRounds <= len(s.scans); i += kvRounds {
		growth = append(growth, float64(s.scans[i+kvRounds-1])/float64(s.scans[i]))
	}
	var scan time.Duration
	for _, d := range s.scans {
		scan += d
	}
	storeInIter := (scan + s.getBatch + s.moveBatch + s.other).Seconds()
	r.values["kvstore.put_ops"] = float64(s.putOps) / n
	r.values["kvstore.put_s"] = s.put.Seconds() / steps
	r.values["kvstore.keys_ops"] = float64(len(s.scans)) / n
	r.values["kvstore.keys_s"] = scan.Seconds() / steps
	r.values["kvstore.keys_growth"] = median(growth)
	r.values["kvstore.get_batch_s"] = s.getBatch.Seconds() / steps
	r.values["kvstore.move_batch_s"] = s.moveBatch.Seconds() / steps
	r.values["kvstore.read_bytes"] = float64(s.readBytes) / n
	r.values["kvstore.write_bytes"] = float64(s.writeBytes) / n
	r.values["kvstore.errors"] = float64(s.errors) / n
	r.values["kvstore.put_p50_us"] = median(puts) * 1e6
	r.values["kvstore.put_p99_us"] = quantile(puts, 0.99) * 1e6
	r.values["feedback.self_s"] = (iterTotal - storeInIter) / steps
	r.values["feedback.frames"] = frames / n
	if s.fetched > 0 {
		r.values["feedback.useful_frac"] = frames / float64(s.fetched)
	}
	r.values["feedback.iter_p50_ms"] = median(iters) * 1e3
	r.values["feedback.iter_p90_ms"] = quantile(iters, 0.9) * 1e3
	r.values["runtime.gc_cycles"] = gc / steps
	r.values["trace.overhead_frac"] = median(tracedWall)/median(plainWall) - 1
	r.samples["passes_traced"] = len(spanned)
	r.samples["puts_traced"] = len(puts)
	r.samples["iterations_traced"] = len(iters)
	r.samples["profile_ms"] = int(cpu.Total / int64(time.Millisecond))
	if want := float64(kvRounds * kvFrames); frames/n != want {
		r.fail("liveness: feedback.frames is %v per pass, %v were written", frames/n, want)
	}
}

func passWall(p kvPass) float64 {
	var w time.Duration
	for _, rd := range p.rounds {
		w += rd.use.wall
	}
	return w.Seconds()
}

// timedStore wraps the kvstore handed to the feedback manager and times
// each call into it, accumulating over every traced pass. It keeps the
// batch capabilities, so the manager takes the same batched path as with
// the bare store. One goroutine uses it.
type timedStore struct {
	s *kvstore.Store // the current pass's store

	putOps                   int
	put, getBatch, moveBatch time.Duration
	other                    time.Duration   // unbatched Get/Move/Delete
	scans                    []time.Duration // every Keys call, in order
	readBytes, writeBytes    int64
	fetched                  int64 // values returned by fetches
	errors                   int
}

func (t *timedStore) note(err error) {
	if err != nil {
		t.errors++
	}
}

// Put implements datastore.Store.
func (t *timedStore) Put(ns, key string, data []byte) error {
	s := time.Now()
	err := t.s.Put(ns, key, data)
	t.put += time.Since(s)
	t.putOps++
	t.writeBytes += int64(len(data))
	t.note(err)
	return err
}

// Get implements datastore.Store.
func (t *timedStore) Get(ns, key string) ([]byte, error) {
	s := time.Now()
	v, err := t.s.Get(ns, key)
	t.other += time.Since(s)
	if err == nil {
		t.fetched++
		t.readBytes += int64(len(v))
	}
	t.note(err)
	return v, err
}

// Delete implements datastore.Store.
func (t *timedStore) Delete(ns, key string) error {
	s := time.Now()
	err := t.s.Delete(ns, key)
	t.other += time.Since(s)
	t.note(err)
	return err
}

// Keys implements datastore.Store.
func (t *timedStore) Keys(ns string) ([]string, error) {
	s := time.Now()
	keys, err := t.s.Keys(ns)
	t.scans = append(t.scans, time.Since(s))
	t.note(err)
	return keys, err
}

// Move implements datastore.Store.
func (t *timedStore) Move(srcNS, key, dstNS string) error {
	s := time.Now()
	err := t.s.Move(srcNS, key, dstNS)
	t.other += time.Since(s)
	t.note(err)
	return err
}

// GetBatch implements datastore.BatchGetter.
func (t *timedStore) GetBatch(ns string, keys []string) (map[string][]byte, error) {
	s := time.Now()
	got, err := t.s.GetBatch(ns, keys)
	t.getBatch += time.Since(s)
	for _, v := range got {
		t.fetched++
		t.readBytes += int64(len(v))
	}
	t.note(err)
	return got, err
}

// MoveBatch implements datastore.BatchMover.
func (t *timedStore) MoveBatch(srcNS string, keys []string, dstNS string) error {
	s := time.Now()
	err := t.s.MoveBatch(srcNS, keys, dstNS)
	t.moveBatch += time.Since(s)
	t.note(err)
	return err
}

// Close implements datastore.Store; the pass owns the underlying store.
func (t *timedStore) Close() error { return nil }
