package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers lists the profile buckets in report order. Every CPU sample
// lands in exactly one, so their shares sum to 1.
var layers = []string{
	"osm", "sim", "iss", "mem", "de", "baseline",
	"server", "wire", "gate", "snap", "store",
	"runtime", "nethttp", "syscall", "other",
}

// pkgLayers maps repository package paths (by prefix) to layers.
// runner is the session layer the server hosts models through, so it
// counts as server.
var pkgLayers = []struct{ prefix, layer string }{
	{"repro/internal/osm", "osm"},
	{"repro/internal/sim", "sim"},
	{"repro/internal/iss", "iss"},
	{"repro/internal/isa", "iss"},
	{"repro/internal/mem", "mem"},
	{"repro/internal/de", "de"},
	{"repro/internal/baseline", "baseline"},
	{"repro/internal/server", "server"},
	{"repro/internal/runner", "server"},
	{"repro/internal/wire", "wire"},
	{"repro/internal/gate", "gate"},
	{"repro/internal/snap", "snap"},
	{"repro/internal/store", "store"},
}

// funcPackage returns the package path of a symbol name such as
// "repro/internal/osm.(*Director).Step" or "runtime.mallocgc".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// ownLayer classifies one frame: a repository layer, one of the
// runtime/nethttp/syscall buckets, or "" for a library frame whose
// cost belongs to whichever layer called it.
func ownLayer(fn string) string {
	pkg := funcPackage(fn)
	for _, pl := range pkgLayers {
		if pkg == pl.prefix || strings.HasPrefix(pkg, pl.prefix+"/") {
			return pl.layer
		}
	}
	switch {
	case strings.Contains(pkg, "syscall"), pkg == "internal/poll", pkg == "net", pkg == "os":
		return "syscall"
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") || strings.HasPrefix(pkg, "runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "net/http") || pkg == "net/textproto":
		return "nethttp"
	}
	return ""
}

// gcRoots are the runtime functions under which a sample counts as
// garbage-collector work (background marking, assists, sweeping).
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true,
	"runtime.bgsweep": true, "runtime.bgscavenge": true,
	"runtime.sweepone": true, "runtime.gcStart": true,
	"runtime.gcMarkTermination": true,
}

// profileSummary is a CPU profile bucketed by layer.
type profileSummary struct {
	total   int64            // sampled CPU nanoseconds, host-speed probes excluded
	byLayer map[string]int64 // self nanoseconds per layer
	gc      int64            // nanoseconds under gcRoots
	// byPhase holds self nanoseconds per layer for samples carrying
	// the "phase" label.
	byPhase map[string]map[string]int64
}

// summarize buckets a gzipped pprof CPU profile. A sample's layer is
// its leaf frame's, except that library frames (encoding/json,
// compress/flate, sort, ...) take the layer of the nearest caller
// that has one; a stack with none is "other".
func summarize(gz []byte) (*profileSummary, error) {
	samples, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	s := &profileSummary{byLayer: map[string]int64{}, byPhase: map[string]map[string]int64{}}
	for _, smp := range samples {
		if smp.labels["phase"] == "probe" {
			continue // the host-speed probe is the benchmark's, not a layer's
		}
		ns := smp.value
		layer, isGC := "other", false
		found := false
		for _, fn := range smp.stack {
			if !found {
				if l := ownLayer(fn); l != "" {
					layer, found = l, true
				}
			}
			if gcRoots[fn] {
				isGC = true
			}
		}
		s.total += ns
		s.byLayer[layer] += ns
		if isGC {
			s.gc += ns
		}
		if ph := smp.labels["phase"]; ph != "" {
			if s.byPhase[ph] == nil {
				s.byPhase[ph] = map[string]int64{}
			}
			s.byPhase[ph][layer] += ns
		}
	}
	if s.total == 0 {
		return nil, errors.New("profile: no samples")
	}
	return s, nil
}

// share returns a layer's fraction of all sampled CPU time.
func (s *profileSummary) share(layer string) float64 {
	return float64(s.byLayer[layer]) / float64(s.total)
}

// ---- minimal decoder for the pprof protobuf format ----

type profSample struct {
	stack  []string // function names, leaf first, inlined frames expanded
	value  int64    // last sample value (CPU nanoseconds for CPU profiles)
	labels map[string]string
}

type pbReader struct {
	b []byte
	i int
}

var errTruncated = errors.New("profile: truncated protobuf")

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if r.i >= len(r.b) {
			return 0, errTruncated
		}
		c := r.b[r.i]
		r.i++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// field reads one key and returns its number, wire type, and either
// the varint value or the length-delimited payload.
func (r *pbReader) field() (num int, wt int, v uint64, data []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wt = int(key>>3), int(key&7)
	switch wt {
	case 0:
		v, err = r.varint()
	case 1:
		if r.i+8 > len(r.b) {
			return 0, 0, 0, nil, errTruncated
		}
		r.i += 8
	case 2:
		var n uint64
		n, err = r.varint()
		if err == nil {
			if uint64(len(r.b)-r.i) < n {
				return 0, 0, 0, nil, errTruncated
			}
			data = r.b[r.i : r.i+int(n)]
			r.i += int(n)
		}
	case 5:
		if r.i+4 > len(r.b) {
			return 0, 0, 0, nil, errTruncated
		}
		r.i += 4
	default:
		err = fmt.Errorf("profile: unsupported wire type %d", wt)
	}
	return num, wt, v, data, err
}

// uints decodes a repeated integer field in either packed or
// unpacked form, appending to dst.
func uints(dst []uint64, wt int, v uint64, data []byte) ([]uint64, error) {
	if wt == 0 {
		return append(dst, v), nil
	}
	r := &pbReader{b: data}
	for r.i < len(r.b) {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

type rawSample struct {
	locs, vals []uint64
	labels     [][2]uint64 // key, str string-table indexes
}

// parseProfile decodes a gzipped pprof profile into its samples.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs    []string
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcs   = map[uint64]uint64{}   // function id -> name string index
	)
	r := &pbReader{b: raw}
	for r.i < len(r.b) {
		num, _, _, data, err := r.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // sample
			var s rawSample
			sr := &pbReader{b: data}
			for sr.i < len(sr.b) {
				n, w, x, d, err := sr.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = uints(s.locs, w, x, d)
				case 2:
					s.vals, err = uints(s.vals, w, x, d)
				case 3:
					var key, str uint64
					lr := &pbReader{b: d}
					for lr.i < len(lr.b) {
						ln, _, lx, _, err := lr.field()
						if err != nil {
							return nil, err
						}
						switch ln {
						case 1:
							key = lx
						case 2:
							str = lx
						}
					}
					s.labels = append(s.labels, [2]uint64{key, str})
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fids []uint64
			lr := &pbReader{b: data}
			for lr.i < len(lr.b) {
				n, _, x, d, err := lr.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = x
				case 4: // line
					ir := &pbReader{b: d}
					for ir.i < len(ir.b) {
						ln, _, lx, _, err := ir.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fids = append(fids, lx)
						}
					}
				}
			}
			locs[id] = fids
		case 5: // function
			var id, name uint64
			fr := &pbReader{b: data}
			for fr.i < len(fr.b) {
				n, _, x, _, err := fr.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = x
				case 2:
					name = x
				}
			}
			funcs[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	var out []profSample
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		ps := profSample{value: int64(s.vals[len(s.vals)-1])}
		for _, l := range s.locs {
			for _, fid := range locs[l] {
				ps.stack = append(ps.stack, str(funcs[fid]))
			}
		}
		if len(s.labels) > 0 {
			ps.labels = map[string]string{}
			for _, kv := range s.labels {
				ps.labels[str(kv[0])] = str(kv[1])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}
