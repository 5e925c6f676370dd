package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// The cost ledger charges every CPU-profile sample to one repository
// module: the innermost stack frame whose function lives under
// goopc/internal/. Standard-library frames (sort, encoding/json,
// runtime.memclr...) therefore count toward the module that called
// them, and a sample with no goopc frame at all (the Go runtime's own
// work such as GC, or this benchmark's glue) goes to runtimeModule.

const (
	modulePrefix  = "goopc/internal/"
	runtimeModule = "runtime"
)

// moduleOf maps a profiled function name to its module: the package
// path below goopc/internal, with the two opc subpackages (model and
// rules) and obs/trace named as their own layers. It returns "" for a
// function outside goopc/internal.
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	// The package path ends at the first '.' (no goopc package path
	// contains one); what follows is the function or method name.
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		rest = rest[:i]
	}
	switch rest {
	case "opc/model":
		return "model"
	case "opc/rules":
		return "rules"
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// profSample is one decoded CPU-profile sample: its stack as function
// names, innermost first, and the CPU nanoseconds it stands for.
type profSample struct {
	stack []string
	nanos int64
}

// ledger attributes samples to modules, returning CPU seconds per
// module.
func ledger(samples []profSample) map[string]float64 {
	out := map[string]float64{}
	for _, s := range samples {
		mod := runtimeModule
		for _, fn := range s.stack {
			if m := moduleOf(fn); m != "" {
				mod = m
				break
			}
		}
		out[mod] += float64(s.nanos) / 1e9
	}
	return out
}

// moduleShare is one module's line in the ledger ranking.
type moduleShare struct {
	Module string  `json:"module"`
	CPUS   float64 `json:"cpu_s"`
	Share  float64 `json:"share"`
}

// topModules ranks the repository modules (not the runtime bucket) by
// CPU seconds, each with its share of all profiled CPU.
func topModules(led map[string]float64, n int) []moduleShare {
	var total float64
	var out []moduleShare
	for m, s := range led {
		total += s
		if m != runtimeModule {
			out = append(out, moduleShare{Module: m, CPUS: s})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].CPUS != out[j].CPUS {
			return out[i].CPUS > out[j].CPUS
		}
		return out[i].Module < out[j].Module
	})
	if len(out) > n {
		out = out[:n]
	}
	for i := range out {
		if total > 0 {
			out[i].Share = out[i].CPUS / total
		}
	}
	return out
}

// parseProfile decodes a runtime/pprof CPU profile (gzipped or raw
// profile.proto) into samples. Only the fields the ledger needs are
// read: sample stacks and values, locations with their (inlined) lines,
// function names and the string table.
func parseProfile(data []byte) ([]profSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		raws    []rawSample
		strs    []string
		unitIx  []int64                 // sample_type unit string indices
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnNames = map[uint64]int64{}    // function id -> string index
	)
	err := walkProto(data, func(num, typ int, v uint64, b []byte) error {
		if typ != 2 {
			return nil
		}
		switch num {
		case 1: // sample_type
			var unit int64 = -1
			if err := walkProto(b, func(n, t int, v uint64, _ []byte) error {
				if n == 2 && t == 0 {
					unit = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			unitIx = append(unitIx, unit)
		case 2: // sample
			var s rawSample
			if err := walkProto(b, func(n, t int, v uint64, pb []byte) error {
				switch n {
				case 1:
					return appendPacked(&s.locs, t, v, pb)
				case 2:
					var u []uint64
					if err := appendPacked(&u, t, v, pb); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			raws = append(raws, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := walkProto(b, func(n, t int, v uint64, pb []byte) error {
				switch {
				case n == 1 && t == 0:
					id = v
				case n == 4 && t == 2:
					return walkProto(pb, func(ln, lt int, lv uint64, _ []byte) error {
						if ln == 1 && lt == 0 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := walkProto(b, func(n, t int, v uint64, _ []byte) error {
				if t == 0 && n == 1 {
					id = v
				} else if t == 0 && n == 2 {
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			fnNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	// CPU profiles carry (samples/count, cpu/nanoseconds) per sample;
	// read the nanoseconds column, else the last one.
	ix := len(unitIx) - 1
	for i, u := range unitIx {
		if str(u) == "nanoseconds" {
			ix = i
		}
	}
	samples := make([]profSample, 0, len(raws))
	for _, r := range raws {
		if ix < 0 || ix >= len(r.values) {
			return nil, errors.New("profile: sample without a CPU value")
		}
		var stack []string
		for _, loc := range r.locs {
			for _, fn := range locFns[loc] {
				stack = append(stack, str(fnNames[fn]))
			}
		}
		samples = append(samples, profSample{stack: stack, nanos: r.values[ix]})
	}
	return samples, nil
}

// appendPacked appends a repeated scalar field that may arrive either
// packed (one length-delimited run of varints) or as single varints.
func appendPacked(dst *[]uint64, typ int, v uint64, b []byte) error {
	if typ == 0 {
		*dst = append(*dst, v)
		return nil
	}
	if typ != 2 {
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// walkProto calls fn for every field of a protobuf message: v carries
// varint values, b the payload of length-delimited fields; fixed-width
// fields are skipped.
func walkProto(data []byte, fn func(num, typ int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		data = data[n:]
		num, typ := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch typ {
		case 0:
			v, n = uvarint(data)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("profile: short fixed64")
			}
			data = data[8:]
			continue
		case 2:
			l, n := uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("profile: bad length")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("profile: short fixed32")
			}
			data = data[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", typ)
		}
		if err := fn(num, typ, v, b); err != nil {
			return err
		}
	}
	return nil
}

// uvarint decodes a protobuf varint, returning the value and the bytes
// consumed (0 or less on malformed input).
func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		c := b[i]
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
