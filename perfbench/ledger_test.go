package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"testing"
)

// protoEnc is a minimal protobuf encoder for building synthetic
// profiles.
type protoEnc struct{ b []byte }

func (e *protoEnc) varint(x uint64) {
	for x >= 0x80 {
		e.b = append(e.b, byte(x)|0x80)
		x >>= 7
	}
	e.b = append(e.b, byte(x))
}

func (e *protoEnc) uint(num int, x uint64) {
	e.varint(uint64(num)<<3 | 0)
	e.varint(x)
}

func (e *protoEnc) bytes(num int, b []byte) {
	e.varint(uint64(num)<<3 | 2)
	e.varint(uint64(len(b)))
	e.b = append(e.b, b...)
}

func (e *protoEnc) packed(num int, xs []uint64) {
	var p protoEnc
	for _, x := range xs {
		p.varint(x)
	}
	e.bytes(num, p.b)
}

// syntheticProfile encodes a CPU profile whose samples have the given
// stacks (innermost first; each inner slice is one location holding
// inlined frames, innermost first) and nanosecond values.
func syntheticProfile(t *testing.T, stacks [][][]string, nanos []int64, gz bool) []byte {
	t.Helper()
	var p protoEnc
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	str := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var v protoEnc
		v.uint(1, str(vt[0]))
		v.uint(2, str(vt[1]))
		p.bytes(1, v.b)
	}
	fnIDs := map[string]uint64{}
	var locs, fns protoEnc
	nextLoc := uint64(1)
	for i, stack := range stacks {
		var ids []uint64
		for _, loc := range stack {
			var l protoEnc
			l.uint(1, nextLoc)
			for _, fn := range loc {
				id, ok := fnIDs[fn]
				if !ok {
					id = uint64(len(fnIDs) + 1)
					fnIDs[fn] = id
					var f protoEnc
					f.uint(1, id)
					f.uint(2, str(fn))
					fns.bytes(5, f.b)
				}
				var line protoEnc
				line.uint(1, id)
				l.bytes(4, line.b)
			}
			locs.bytes(4, l.b)
			ids = append(ids, nextLoc)
			nextLoc++
		}
		var s protoEnc
		if i%2 == 0 {
			s.packed(1, ids)
		} else {
			for _, id := range ids {
				s.uint(1, id)
			}
		}
		s.packed(2, []uint64{1, uint64(nanos[i])})
		p.bytes(2, s.b)
	}
	p.b = append(p.b, locs.b...)
	p.b = append(p.b, fns.b...)
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	if !gz {
		return p.b
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLedgerInnermostGoopcFrame(t *testing.T) {
	stacks := [][][]string{
		// A stdlib leaf called from geom: charged to geom.
		{{"sort.insertionSort"}, {"sort.Slice"}, {"goopc/internal/geom.Union"}, {"main.main"}},
		// memclr inlined into an fft frame within one location.
		{{"runtime.memclrNoHeapPointers", "goopc/internal/fft.(*Plan2D).Inverse"}, {"goopc/internal/optics.(*Simulator).Aerial"}},
		// Innermost goopc frame wins over its goopc caller.
		{{"goopc/internal/optics.(*Simulator).socsIntensity.func1"}, {"goopc/internal/core.(*Flow).correctClass"}},
		// Nested package paths name their layer.
		{{"goopc/internal/opc/model.(*Engine).Run"}, {"goopc/internal/core.(*Flow).tileAttempt"}},
		{{"encoding/json.Marshal"}, {"goopc/internal/opc/rules.Table"}},
		{{"goopc/internal/obs/trace.(*Worker).Emit"}},
		{{"goopc/internal/layout/gen.BuildSRAM"}},
		// No goopc frame at all: the runtime bucket.
		{{"runtime.gcBgMarkWorker"}},
		{{"main.realMain"}},
	}
	nanos := []int64{10e6, 20e6, 30e6, 40e6, 50e6, 60e6, 70e6, 80e6, 5e6}
	want := map[string]float64{
		"geom": 0.01, "fft": 0.02, "optics": 0.03, "model": 0.04, "rules": 0.05,
		"obs": 0.06, "layout": 0.07, runtimeModule: 0.085,
	}
	for _, gz := range []bool{false, true} {
		samples, err := parseProfile(syntheticProfile(t, stacks, nanos, gz))
		if err != nil {
			t.Fatal(err)
		}
		if len(samples) != len(stacks) {
			t.Fatalf("decoded %d samples, want %d", len(samples), len(stacks))
		}
		got := ledger(samples)
		if len(got) != len(want) {
			t.Errorf("gz=%t ledger %v, want %v", gz, got, want)
		}
		for mod, s := range want {
			if math.Abs(got[mod]-s) > 1e-12 {
				t.Errorf("gz=%t %s = %g s, want %g", gz, mod, got[mod], s)
			}
		}
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"goopc/internal/core.(*Flow).CorrectWindowedCtx.func3": "core",
		"goopc/internal/geom.sortSlice[...]":                   "geom",
		"goopc/internal/opc.Bias":                              "opc",
		"goopc/internal/opc/model.imageFoci":                   "model",
		"goopc/internal/obs/trace.New":                         "obs",
		"goopc/cmd/opcflow.run":                                "",
		"sort.Slice":                                           "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestTopModulesExcludesRuntime(t *testing.T) {
	top := topModules(map[string]float64{"fft": 6, "optics": 2, runtimeModule: 1, "geom": 1}, 3)
	if len(top) != 3 || top[0].Module != "fft" || top[1].Module != "optics" || top[2].Module != "geom" {
		t.Fatalf("top = %+v", top)
	}
	if math.Abs(top[0].Share-0.6) > 1e-12 {
		t.Errorf("fft share %g, want 0.6 of all profiled CPU", top[0].Share)
	}
}
