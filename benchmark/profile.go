package main

// Host self-time by layer: the CPU profile of a traced load phase, each
// sample charged to the innermost repository frame on its stack. The
// profile is runtime/pprof's gzipped protobuf; the decoder below reads
// only the fields the fold needs (sample, location, function, string
// table) and needs nothing outside the standard library.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// stackSample is one profile sample: function names innermost first, and
// the CPU nanoseconds it stands for.
type stackSample struct {
	frames []string
	cpuNS  int64
}

// hostLayers are the layers that get a <layer>.host_ms metric of their
// own: the repository's packages by name, "cloudburst" for the public
// client API in the root package, "harness" for this benchmark's own code
// and "rest" for any other repository package.
var hostLayers = []string{
	"vtime", "simnet", "codec", "lattice", "anna", "cache", "scheduler",
	"executor", "monitor", "cluster", "traffic", "trace", "workload",
	"core", "dag", "cloudburst", "harness", "rest",
}

const (
	layerGC    = "goruntime.gc"
	layerOther = "goruntime.other"
)

// layerOf names the layer a function belongs to; ok is false for code
// outside the repository (runtime, standard library).
func layerOf(function string) (layer string, ok bool) {
	// The package path ends at the first dot after the last slash; type
	// arguments and receivers may hold slashes of their own, so cut first.
	name := function
	if i := strings.IndexAny(name, "[("); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return "", false
	}
	pkg := name[:slash+1+dot]
	switch {
	case pkg == "main" || pkg == "cloudburst/benchmark":
		return "harness", true
	case pkg == "cloudburst":
		return "cloudburst", true
	case strings.HasPrefix(pkg, "cloudburst/internal/"):
		layer = strings.TrimPrefix(pkg, "cloudburst/internal/")
		for _, l := range hostLayers {
			if l == layer {
				return layer, true
			}
		}
		return "rest", true
	}
	return "", false
}

// gcPrefixes start the names of the runtime's garbage-collector functions.
var gcPrefixes = []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject", "runtime.sweepone", "runtime.(*gcWork)", "runtime.(*sweepLocked)"}

// gcFrame reports whether a runtime function is garbage-collector work.
func gcFrame(function string) bool {
	for _, p := range gcPrefixes {
		if strings.HasPrefix(function, p) {
			return true
		}
	}
	return false
}

// foldByLayer sums the samples' CPU milliseconds by layer. A sample goes
// to the layer of its innermost repository frame, so sort.Strings under
// anna is Anna's time and mallocgc under codec is codec's; a sample with
// no repository frame is the collector's or the rest of the Go runtime's.
func foldByLayer(samples []stackSample) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range samples {
		layer, gc := layerOther, false
		for _, f := range s.frames {
			if l, ok := layerOf(f); ok {
				layer, gc = l, false
				break
			}
			gc = gc || gcFrame(f)
		}
		if gc {
			layer = layerGC
		}
		out[layer] += float64(s.cpuNS) / 1e6
	}
	return out
}

// ---- pprof protobuf ----

var errTruncated = errors.New("cpu profile: truncated message")

// protoField is one decoded field: a varint value or a length-delimited
// payload, by wire type.
type protoField struct {
	num  int
	wire int
	val  uint64
	data []byte
}

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

// eachField calls fn for every field of a protobuf message.
func eachField(msg []byte, fn func(protoField) error) error {
	for len(msg) > 0 {
		key, rest, err := readVarint(msg)
		if err != nil {
			return err
		}
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.val, rest, err = readVarint(rest)
			if err != nil {
				return err
			}
		case 1, 5:
			n := 8
			if f.wire == 5 {
				n = 4
			}
			if len(rest) < n {
				return errTruncated
			}
			rest = rest[n:]
		case 2:
			var n uint64
			n, rest, err = readVarint(rest)
			if err != nil {
				return err
			}
			if uint64(len(rest)) < n {
				return errTruncated
			}
			f.data, rest = rest[:n], rest[n:]
		default:
			return fmt.Errorf("cpu profile: wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
		msg = rest
	}
	return nil
}

// repeatedVarints appends a repeated integer field's values, packed or not.
func repeatedVarints(dst []uint64, f protoField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.val), nil
	}
	for b := f.data; len(b) > 0; {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// parseProfile decodes a runtime/pprof CPU profile into its samples.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	type rawSample struct{ locs, values []uint64 }
	var (
		samples   []rawSample
		strs      []string
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id -> string index of its name
	)
	err = eachField(raw, func(f protoField) error {
		switch f.num {
		case 2: // Sample: location_id = 1, value = 2
			var s rawSample
			if err := eachField(f.data, func(sf protoField) (err error) {
				switch sf.num {
				case 1:
					s.locs, err = repeatedVarints(s.locs, sf)
				case 2:
					s.values, err = repeatedVarints(s.values, sf)
				}
				return err
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location: id = 1, line = 4 {function_id = 1}
			var id uint64
			var fns []uint64
			if err := eachField(f.data, func(lf protoField) error {
				switch lf.num {
				case 1:
					id = lf.val
				case 4:
					return eachField(lf.data, func(ln protoField) error {
						if ln.num == 1 {
							fns = append(fns, ln.val)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function: id = 1, name = 2
			var id, name uint64
			if err := eachField(f.data, func(ff protoField) error {
				switch ff.num {
				case 1:
					id = ff.val
				case 2:
					name = ff.val
				}
				return nil
			}); err != nil {
				return err
			}
			funcNames[id] = name
		case 6:
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		// runtime/pprof's CPU profile has two values per sample: the sample
		// count and the CPU nanoseconds.
		if len(s.values) != 2 {
			return nil, fmt.Errorf("cpu profile: sample with %d values, want 2", len(s.values))
		}
		st := stackSample{cpuNS: int64(s.values[1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx < uint64(len(strs)) {
					st.frames = append(st.frames, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}
