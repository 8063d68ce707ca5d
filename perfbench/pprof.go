package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file turns a runtime/pprof CPU profile into per-layer CPU seconds
// using only the standard library: a minimal decoder for the profile.proto
// wire format and an attribution pass that charges every sample to one
// bucket.

// profileStack is one decoded sample: its function names from the leaf
// (innermost, index 0) to the root, and its CPU time in nanoseconds.
type profileStack struct {
	funcs []string
	nanos int64
}

// repoPrefix marks the repository's own modules in function names.
const repoPrefix = "mummi/internal/"

// Bucket names for samples that have no repository frame to carry them.
const (
	gcBucket    = "runtime.gc"
	otherBucket = "runtime.other"
)

// layerCPU is the attribution of one profile.
type layerCPU struct {
	// Exclusive holds each sample once: GC work in gcBucket, else the
	// innermost repository module on the stack, else otherBucket. Its
	// values sum to Total.
	Exclusive map[string]int64
	// Refresh and Checkpoint are cumulative: samples with the farthest-
	// point rank refresh, or a workflow-manager checkpoint or restore,
	// anywhere on the stack.
	Refresh    int64
	Checkpoint int64
	Total      int64
}

// gcFrame reports whether fn is collector work: background mark workers,
// mutator assists, sweeping and scavenging, and the write barrier.
func gcFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") ||
		strings.HasPrefix(fn, "runtime.bgscavenge") || strings.HasPrefix(fn, "runtime.markroot") ||
		fn == "runtime.wbBufFlush" || fn == "runtime.wbBufFlush1"
}

// repoModule returns the repository module a function belongs to
// ("mummi/internal/dynim.(*FarthestPoint).Add" → "dynim"), or "".
// Sub-packages are charged to their parent module.
func repoModule(fn string) string {
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		return rest[:i]
	}
	return rest
}

func refreshFrame(fn string) bool {
	return strings.HasPrefix(fn, repoPrefix+"dynim.(*FarthestPoint).refreshSlot")
}

func checkpointFrame(fn string) bool {
	m := repoModule(fn)
	if m != "core" && m != "wmfleet" {
		return false
	}
	return strings.Contains(fn, "Checkpoint") || strings.Contains(fn, "Restore")
}

// attribute charges every stack to its buckets.
func attribute(stacks []profileStack) layerCPU {
	out := layerCPU{Exclusive: map[string]int64{}}
	for _, s := range stacks {
		out.Total += s.nanos
		bucket := ""
		refresh, ckpt := false, false
		for _, fn := range s.funcs {
			if gcFrame(fn) {
				bucket = gcBucket
			}
			refresh = refresh || refreshFrame(fn)
			ckpt = ckpt || checkpointFrame(fn)
		}
		if bucket == "" {
			bucket = otherBucket
			for _, fn := range s.funcs {
				if m := repoModule(fn); m != "" {
					bucket = m
					break
				}
			}
		}
		out.Exclusive[bucket] += s.nanos
		if refresh {
			out.Refresh += s.nanos
		}
		if ckpt {
			out.Checkpoint += s.nanos
		}
	}
	return out
}

// add accumulates another attribution into l.
func (l *layerCPU) add(o layerCPU) {
	if l.Exclusive == nil {
		l.Exclusive = map[string]int64{}
	}
	for k, v := range o.Exclusive {
		l.Exclusive[k] += v
	}
	l.Refresh += o.Refresh
	l.Checkpoint += o.Checkpoint
	l.Total += o.Total
}

// parseCPUProfile decodes a gzipped (or raw) profile.proto CPU profile into
// stacks weighted by the "cpu"/"nanoseconds" sample value.
func parseCPUProfile(data []byte) ([]profileStack, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pprof: gunzip: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("pprof: gunzip: %w", err)
		}
		data = raw
	}
	type valueType struct{ typ, unit int64 }
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		sampleTypes []valueType
		samples     []sample
		strs        []string
		locLines    = map[uint64][]uint64{} // location id → function ids, leaf first
		funcName    = map[uint64]int64{}    // function id → string index
	)
	err := walkFields(data, func(field int, wire int, v uint64, msg []byte) error {
		switch field {
		case 1: // sample_type
			var vt valueType
			err := walkFields(msg, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					vt.typ = int64(v)
				case 2:
					vt.unit = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, vt)
			return err
		case 2: // sample
			var s sample
			err := walkFields(msg, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, w, v, b)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, w, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(msg, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(lf, _ int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(msg, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	idx := -1
	for i, st := range sampleTypes {
		if str(st.typ) == "cpu" && str(st.unit) == "nanoseconds" {
			idx = i
		}
	}
	if idx < 0 {
		return nil, errors.New("pprof: profile has no cpu/nanoseconds sample type")
	}
	out := make([]profileStack, 0, len(samples))
	for _, s := range samples {
		if idx >= len(s.values) {
			return nil, errors.New("pprof: sample is missing its cpu value")
		}
		st := profileStack{nanos: s.values[idx]}
		for _, loc := range s.locs {
			for _, fid := range locLines[loc] {
				st.funcs = append(st.funcs, str(funcName[fid]))
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// walkFields calls fn for every top-level field of a protobuf message:
// varint fields pass their value in v, length-delimited fields their bytes
// in b. Fixed-width fields are skipped.
func walkFields(buf []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		buf = buf[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("pprof: truncated fixed64")
			}
			buf = buf[8:]
			continue
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || l > uint64(len(buf)-n) {
				return errors.New("pprof: bad length-delimited field")
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("pprof: truncated fixed32")
			}
			buf = buf[4:]
			continue
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field given either unpacked
// (wire type 0, one value in v) or packed (wire type 2, values in b).
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
