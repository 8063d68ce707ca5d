package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"runtime/pprof"
	"testing"
)

// pb is a minimal protobuf encoder for building synthetic profiles.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pb) bytes(field int, data []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(data)))
	p.b = append(p.b, data...)
}

func (p *pb) packed(field int, vs ...uint64) {
	var q pb
	for _, v := range vs {
		q.b = binary.AppendUvarint(q.b, v)
	}
	p.bytes(field, q.b)
}

// synthProfile encodes a CPU profile whose samples are the given stacks
// (function names leaf first). Each function gets its own location, except
// that the first two frames of inlined stacks share one location, leaf
// line first, the way the runtime encodes inlining.
func synthProfile(t *testing.T, stacks []profileStack, inlined bool) []byte {
	t.Helper()
	var p pb
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	intern := func(s string) uint64 {
		for i, v := range strs {
			if v == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var vt pb
	vt.varint(1, 1)
	vt.varint(2, 2)
	p.bytes(1, vt.b)
	vt = pb{}
	vt.varint(1, 3)
	vt.varint(2, 4)
	p.bytes(1, vt.b)

	funcs := map[string]uint64{}
	nextLoc := uint64(1)
	for _, s := range stacks {
		var locs []uint64
		for i := 0; i < len(s.funcs); i++ {
			names := []string{s.funcs[i]}
			if inlined && i == 0 && len(s.funcs) > 1 {
				names = append(names, s.funcs[1])
				i++
			}
			var loc pb
			loc.varint(1, nextLoc)
			for _, n := range names {
				id, ok := funcs[n]
				if !ok {
					id = uint64(len(funcs) + 1)
					funcs[n] = id
					var fn pb
					fn.varint(1, id)
					fn.varint(2, intern(n))
					p.bytes(5, fn.b)
				}
				var line pb
				line.varint(1, id)
				line.varint(2, 10)
				loc.bytes(4, line.b)
			}
			p.bytes(4, loc.b)
			locs = append(locs, nextLoc)
			nextLoc++
		}
		var smp pb
		if len(locs) > 2 {
			smp.packed(1, locs...)
		} else {
			for _, l := range locs {
				smp.varint(1, l)
			}
		}
		smp.packed(2, 1, uint64(s.nanos))
		p.bytes(2, smp.b)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestAttributeSyntheticProfile(t *testing.T) {
	stacks := []profileStack{
		// The kernel itself, under the selector's rank refresh.
		{funcs: []string{"mummi/internal/dynim.dist2", "mummi/internal/dynim.(*FarthestPoint).refreshSlot",
			"mummi/internal/parallel.For.func1", "runtime.goexit"}, nanos: 50},
		// Stdlib called from the checkpoint codec is charged to core.
		{funcs: []string{"encoding/json.(*encodeState).marshal", "encoding/json.Marshal",
			"mummi/internal/core.(*Workflow).Checkpoint", "mummi/internal/campaign.(*Campaign).runOne"}, nanos: 20},
		// A runtime allocation inside a sub-package goes to its module.
		{funcs: []string{"runtime.mallocgc", "mummi/internal/datastore/dstest.Fill",
			"mummi/internal/sched.(*Scheduler).Submit"}, nanos: 7},
		// Mark assist under repo code is GC, not the caller.
		{funcs: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcAssistAlloc",
			"runtime.mallocgc", "mummi/internal/kvstore.(*Engine).Set"}, nanos: 6},
		{funcs: []string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, nanos: 4},
		// No repository frame at all.
		{funcs: []string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, nanos: 3},
		{funcs: []string{"syscall.Syscall", "main.main"}, nanos: 2},
	}
	for _, inlined := range []bool{false, true} {
		got, err := parseCPUProfile(synthProfile(t, stacks, inlined))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(stacks) {
			t.Fatalf("inlined=%v: decoded %d samples, want %d", inlined, len(got), len(stacks))
		}
		for i := range stacks {
			if got[i].nanos != stacks[i].nanos || len(got[i].funcs) != len(stacks[i].funcs) {
				t.Fatalf("inlined=%v: sample %d = %+v, want %+v", inlined, i, got[i], stacks[i])
			}
			for j := range stacks[i].funcs {
				if got[i].funcs[j] != stacks[i].funcs[j] {
					t.Fatalf("inlined=%v: sample %d frame %d = %q, want %q",
						inlined, i, j, got[i].funcs[j], stacks[i].funcs[j])
				}
			}
		}
		a := attribute(got)
		want := map[string]int64{"dynim": 50, "core": 20, "datastore": 7, gcBucket: 10, otherBucket: 5}
		if len(a.Exclusive) != len(want) {
			t.Errorf("inlined=%v: buckets %v, want %v", inlined, a.Exclusive, want)
		}
		var sum int64
		for k, v := range a.Exclusive {
			sum += v
			if want[k] != v {
				t.Errorf("inlined=%v: bucket %s = %d, want %d", inlined, k, v, want[k])
			}
		}
		if sum != a.Total || a.Total != 92 {
			t.Errorf("inlined=%v: buckets sum to %d, total %d, want both 92", inlined, sum, a.Total)
		}
		if a.Refresh != 50 || a.Checkpoint != 20 {
			t.Errorf("inlined=%v: refresh %d checkpoint %d, want 50 and 20", inlined, a.Refresh, a.Checkpoint)
		}
	}
}

// TestParseRealProfile decodes a profile written by this toolchain's
// runtime/pprof, which the synthetic encoder only imitates.
func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	x := 0.0
	for i := 0; i < 20_000_000; i++ {
		x += float64(i % 7)
	}
	pprof.StopCPUProfile()
	stacks, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	a := attribute(stacks)
	var sum int64
	for _, v := range a.Exclusive {
		sum += v
	}
	if sum != a.Total {
		t.Errorf("buckets sum to %d, total %d (x=%v)", sum, a.Total, x)
	}
}
