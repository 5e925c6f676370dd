package goopc_test

// The benchmark harness: one testing.B benchmark per reconstructed
// table and figure (see DESIGN.md section 4), driven by the same
// experiment code as cmd/benchtables, plus micro-benchmarks of the
// performance-critical substrates. Each table/figure benchmark performs
// one full experiment per iteration; run with -benchtime=1x for a
// single regeneration.

import (
	"io"
	"math/rand"
	"testing"

	"goopc/internal/experiments"
	"goopc/internal/fft"
	"goopc/internal/geom"
	"goopc/internal/layout"
	"goopc/internal/layout/gen"
	"goopc/internal/mask"
	"goopc/internal/optics"
)

func benchCfg() experiments.Config { return experiments.Default() }

func runExp[T interface{ Print(io.Writer) }](b *testing.B, run func(experiments.Config) (T, error)) {
	b.Helper()
	cfg := benchCfg()
	// Flow setup (calibration + rule table) is shared and cached; build
	// it outside the timer.
	if _, err := experiments.SharedFlow(cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

func BenchmarkTable1CorrectionLevels(b *testing.B) { runExp(b, experiments.RunT1) }
func BenchmarkTable2MaskData(b *testing.B)         { runExp(b, experiments.RunT2) }
func BenchmarkTable3Runtime(b *testing.B)          { runExp(b, experiments.RunT3) }
func BenchmarkTable4MinPitch(b *testing.B)         { runExp(b, experiments.RunT4) }
func BenchmarkFigure1ThroughPitch(b *testing.B)    { runExp(b, experiments.RunF1) }
func BenchmarkFigure2LineEnd(b *testing.B)         { runExp(b, experiments.RunF2) }
func BenchmarkFigure3ProcessWindow(b *testing.B)   { runExp(b, experiments.RunF3) }
func BenchmarkFigure4Convergence(b *testing.B)     { runExp(b, experiments.RunF4) }
func BenchmarkFigure5Hierarchy(b *testing.B)       { runExp(b, experiments.RunF5) }
func BenchmarkFigure6Fragmentation(b *testing.B)   { runExp(b, experiments.RunF6) }
func BenchmarkExt1TimingImpact(b *testing.B)       { runExp(b, experiments.RunE1) }
func BenchmarkExt2AttPSM(b *testing.B)             { runExp(b, experiments.RunE2) }
func BenchmarkExt3MEEF(b *testing.B)               { runExp(b, experiments.RunE3) }
func BenchmarkExt4Yield(b *testing.B)              { runExp(b, experiments.RunE4) }

// --- substrate micro-benchmarks ---

func BenchmarkGeomUnion1k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rects := make([]geom.Rect, 1000)
	for i := range rects {
		x := geom.Coord(rng.Intn(100000))
		y := geom.Coord(rng.Intn(100000))
		rects[i] = geom.R(x, y, x+geom.Coord(100+rng.Intn(2000)), y+geom.Coord(100+rng.Intn(2000)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := geom.RegionFromRects(rects...)
		_ = g.Area()
	}
}

func BenchmarkGeomPolygonReconstruct(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	rects := make([]geom.Rect, 200)
	for i := range rects {
		x := geom.Coord(rng.Intn(20000))
		y := geom.Coord(rng.Intn(20000))
		rects[i] = geom.R(x, y, x+geom.Coord(500+rng.Intn(2000)), y+geom.Coord(500+rng.Intn(2000)))
	}
	g := geom.RegionFromRects(rects...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Polygons()
	}
}

func BenchmarkFFT2D256(b *testing.B) {
	g := fft.NewGrid(256, 256)
	for i := range g.Data {
		g.Data[i] = complex(float64(i%17), 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := g.Clone()
		if err := c.Forward2D(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFFT2D256Planned is the same transform through a reusable
// Plan2D and the grid pool: no per-call allocation, table twiddles.
func BenchmarkFFT2D256Planned(b *testing.B) {
	g := fft.NewGrid(256, 256)
	for i := range g.Data {
		g.Data[i] = complex(float64(i%17), 0)
	}
	plan, err := fft.NewPlan2D(256, 256)
	if err != nil {
		b.Fatal(err)
	}
	plan.Workers = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := fft.GetGrid(256, 256)
		copy(c.Data, g.Data)
		if err := plan.Forward2DP(c); err != nil {
			b.Fatal(err)
		}
		fft.PutGrid(c)
	}
}

func benchAerial(b *testing.B, engine optics.Engine, parallel bool) {
	b.Helper()
	s := optics.Default()
	s.SourceSteps = 5
	s.GuardNM = 1200
	s.Engine = engine
	s.Parallel = parallel
	sim, err := optics.New(s)
	if err != nil {
		b.Fatal(err)
	}
	var mask []geom.Polygon
	for i := -3; i <= 3; i++ {
		x := geom.Coord(i) * 430
		mask = append(mask, geom.R(x-90, -2000, x+90, 2000).Polygon())
	}
	window := geom.R(-800, -400, 800, 400)
	// Warm the kernel cache: steady-state simulation cost is the metric.
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

// BenchmarkAerialImage is the historical name: the default engine
// (SOCS, serial) at equal source sampling to the Abbe variants below.
func BenchmarkAerialImage(b *testing.B)             { benchAerial(b, optics.EngineSOCS, false) }
func BenchmarkAerialImageSOCSParallel(b *testing.B) { benchAerial(b, optics.EngineSOCS, true) }
func BenchmarkAerialImageAbbe(b *testing.B)         { benchAerial(b, optics.EngineAbbe, false) }
func BenchmarkAerialImageAbbeParallel(b *testing.B) { benchAerial(b, optics.EngineAbbe, true) }

func BenchmarkFractureStdCellBlock(b *testing.B) {
	ly := layout.New("bench")
	lib, err := gen.BuildCellLib(ly, gen.Tech180())
	if err != nil {
		b.Fatal(err)
	}
	block, err := gen.BuildBlock(ly, lib, "B", 4, 10, rand.New(rand.NewSource(3)))
	if err != nil {
		b.Fatal(err)
	}
	polys := layout.Flatten(block, layout.Poly)
	w := mask.DefaultWriter()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = mask.Fracture(polys, w.MaxShotNM)
	}
}

func BenchmarkGDSWrite(b *testing.B) {
	ly := layout.New("bench")
	lib, err := gen.BuildCellLib(ly, gen.Tech180())
	if err != nil {
		b.Fatal(err)
	}
	block, err := gen.BuildBlock(ly, lib, "B", 4, 10, rand.New(rand.NewSource(4)))
	if err != nil {
		b.Fatal(err)
	}
	ly.SetTop(block)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := layout.WriteGDS(io.Discard, ly); err != nil {
			b.Fatal(err)
		}
	}
}
