package optics

import (
	"testing"

	"goopc/internal/geom"
)

// Kernel-cache micro-benchmarks: a miss pays the Gram build and Jacobi
// eigensolve, a hit is a sync.Map lookup. OPC iteration loops and E-D
// sweeps run entirely on the hit path.

func benchCacheSim(b *testing.B) (*Simulator, Frame) {
	b.Helper()
	s := Default()
	s.SourceSteps = 5
	s.GuardNM = 1200
	sim, err := New(s)
	if err != nil {
		b.Fatal(err)
	}
	frame := FrameFor(geom.R(-800, -400, 800, 400), s.PixelNM, s.GuardNM)
	return sim, frame
}

func BenchmarkKernelCacheMiss(b *testing.B) {
	sim, frame := benchCacheSim(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.ResetKernelCache()
		if _, err := sim.kernels(frame, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelCacheHit(b *testing.B) {
	sim, frame := benchCacheSim(b)
	if _, err := sim.kernels(frame, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.kernels(frame, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAerialTileFrame images one routed tile's frame at default
// settings: a 4375 nm window gives the 512² fine / 256² coarse frame
// the tiled flow images on every model iteration, so this tracks the
// production shape (run with -cpu 1 for the serial cost). The kernel
// cache is warm, as it is after a flow's first tile.
func BenchmarkAerialTileFrame(b *testing.B) {
	sim, err := New(Default())
	if err != nil {
		b.Fatal(err)
	}
	window := geom.R(-2187, -2187, 2188, 2188)
	mask := parityMask()
	if _, err := sim.Aerial(mask, window); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Aerial(mask, window); err != nil {
			b.Fatal(err)
		}
	}
}
