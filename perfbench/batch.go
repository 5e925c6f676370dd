package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"time"

	"goopc/internal/core"
	"goopc/internal/geom"
	"goopc/internal/layout"
	"goopc/internal/layout/gen"
	"goopc/internal/mask"
	"goopc/internal/obs/trace"
	"goopc/internal/optics"
	"goopc/internal/patlib"
)

// The batch workload, routed_l3_cold, corrects one seeded routed Metal1
// block at L3 with core.Flow.CorrectWindowedCtx(parallel=true), then
// runs mask data prep (mask.Analyze) and writes the corrected layer's
// GDS. One such pass is the unit of work.

// Routed block: the T3 "2x" generator size. The seed draws blocks until
// one covers exactly routedTiles scheduler tiles and has a drawn Metal1
// perimeter within routedPerimTol of routedPerimNM, so every seed does
// about the same imaging work and emits about the same mask data on
// different geometry.
const (
	routedDim      = 23000
	routedNets     = 24
	routedTiles    = 51
	routedPerimNM  = 385000
	routedPerimTol = 0.02
	// routedMaxDraws bounds the search; about 3% of draws qualify, so
	// it is never reached in practice.
	routedMaxDraws = 5000
	routedSetups   = 5
	// routedRMSCeilingNM is the fidelity invariant checked on seeds that
	// have no reference entry.
	routedRMSCeilingNM = 30
)

// fastOptics is the optics setting opcflow -fast (the default) uses.
func fastOptics() optics.Settings {
	s := optics.Default()
	s.SourceSteps = 5
	s.GuardNM = 1200
	return s
}

var biasSpaces = []geom.Coord{240, 320, 420, 560}

func newFlow() (*core.Flow, error) {
	return core.NewFlow(core.Options{Optics: fastOptics(), BiasSpaces: biasSpaces})
}

// tileSize is the scheduler tile opcflow and opcd use: four ambits.
func tileSize(f *core.Flow) geom.Coord { return 4 * f.Ambit }

// routedDraw is one accepted routed block.
type routedDraw struct {
	ly    *layout.Layout
	cell  *layout.Cell
	polys []geom.Polygon // flattened Metal1
	draws int
}

// drawRouted draws routed Metal1 blocks of dim square with nets nets
// from rng until one covers exactly tiles scheduler tiles and has a
// drawn perimeter within tol of perimNM.
func drawRouted(rng *rand.Rand, dim geom.Coord, nets, tiles int, perimNM int64, tol float64, tile geom.Coord) (routedDraw, error) {
	for draw := 1; draw <= routedMaxDraws; draw++ {
		ly := layout.New("routed")
		blk, err := gen.BuildRoutedBlock(ly, gen.Tech180(), "B", dim, dim, nets, rng)
		if err != nil {
			return routedDraw{}, err
		}
		t := layout.Flatten(blk, layout.Metal1)
		if core.EstimateTiles(t, tile) == tiles && math.Abs(float64(perimeter(t))/float64(perimNM)-1) <= tol {
			return routedDraw{ly: ly, cell: blk, polys: t, draws: draw}, nil
		}
	}
	return routedDraw{}, fmt.Errorf("no %d nm routed block with %d tiles and %d nm perimeter in %d draws",
		dim, tiles, perimNM, routedMaxDraws)
}

// perimeter sums the polygons' edge lengths (Manhattan edges).
func perimeter(polys []geom.Polygon) int64 {
	var n int64
	for _, p := range polys {
		for i := range p {
			a, b := p[i], p[(i+1)%len(p)]
			n += int64(abs(a.X-b.X) + abs(a.Y-b.Y))
		}
	}
	return n
}

func abs(c geom.Coord) geom.Coord {
	if c < 0 {
		return -c
	}
	return c
}

// resultGDS writes corrected polygons exactly as opcflow -out and the
// opcd result.gds artifact do: one TOP cell, the layer's OPC layer.
func resultGDS(w *bytes.Buffer, polys []geom.Polygon, l layout.Layer) (int64, error) {
	out := layout.New("corrected")
	cell := out.MustCell("TOP")
	for _, p := range polys {
		cell.AddPolygon(layout.OPCLayer(l), p)
	}
	out.SetTop(cell)
	return layout.WriteGDS(w, out)
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// batch is the batch workload's state after set-up.
type batch struct {
	name   string
	flow   *core.Flow
	target []geom.Polygon
	layer  layout.Layer
	tile   geom.Coord
	gds    bytes.Buffer
}

// passOut is one pass's outcome.
type passOut struct {
	wall     float64
	stats    core.TileStats
	ds       mask.DataStats
	gdsBytes int64
	digest   string
	counters map[string]int64
	// phase timings of the traced run.
	correctS, analyzeS, writeS float64
	busyS                      float64
}

// pass runs one unit: correct, analyze, write GDS. When rec is non-nil
// the flight recorder is attached and the call spans recorded.
func (b *batch) pass(ctx context.Context, spans *spanLog, rec *trace.Recorder) (passOut, error) {
	var o passOut
	b.flow.Tracer = rec
	defer func() { b.flow.Tracer = nil }()
	endPass, pid := spans.start("pass", 0)
	t0 := time.Now()
	end, _ := spans.start("core.CorrectWindowedCtx", pid)
	res, st, err := b.flow.CorrectWindowedCtx(ctx, b.target, core.L3, b.tile, true)
	end()
	t1 := time.Now()
	if err != nil {
		return o, fmt.Errorf("%s: correct: %w", b.name, err)
	}
	end, _ = spans.start("mask.Analyze", pid)
	o.ds = mask.Analyze(res.Corrected, b.flow.Writer)
	end()
	t2 := time.Now()
	b.gds.Reset()
	end, _ = spans.start("layout.WriteGDS", pid)
	o.gdsBytes, err = resultGDS(&b.gds, res.Corrected, b.layer)
	end()
	t3 := time.Now()
	endPass()
	if err != nil {
		return o, fmt.Errorf("%s: write gds: %w", b.name, err)
	}
	o.wall = t3.Sub(t0).Seconds()
	o.correctS, o.analyzeS, o.writeS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()
	o.stats = st
	o.digest = digest(b.gds.Bytes())
	if rec != nil {
		o.busyS = solveSeconds(rec)
	}
	return o, nil
}

// solveSeconds sums the flight recorder's solve slices (SolveBegin to
// SolveEnd on each worker ring).
func solveSeconds(rec *trace.Recorder) float64 {
	open := map[int32]time.Duration{}
	var sum time.Duration
	for _, e := range rec.Events() {
		switch e.Kind {
		case trace.SolveBegin:
			open[e.Worker] = e.T
		case trace.SolveEnd:
			if t, ok := open[e.Worker]; ok {
				sum += e.T - t
				delete(open, e.Worker)
			}
		}
	}
	return sum.Seconds()
}

// setupBatch builds a fresh flow, draws the seed's routed block and
// warms the kernel cache on one fixed line.
func setupBatch(ctx context.Context, name string, seed int64, m *measured) (*batch, error) {
	f, err := newFlow()
	if err != nil {
		return nil, err
	}
	b := &batch{name: name, flow: f, tile: tileSize(f)}
	r, err := drawRouted(rand.New(rand.NewSource(seed)), routedDim, routedNets, routedTiles,
		routedPerimNM, routedPerimTol, b.tile)
	if err != nil {
		return nil, err
	}
	t := r.polys
	b.target, b.layer = t, layout.Metal1
	m.fact("input", fmt.Sprintf("routed %dnm square, %d nets, %d polygons, %d tiles, %d nm perimeter (draw %d)",
		routedDim, routedNets, len(t), routedTiles, perimeter(t), r.draws))
	// One fixed line in one tile at L3 builds the SOCS kernels of the
	// tile frame at every focus the model images; the timed passes then
	// find them cached, as a long-running flow would.
	warm := []geom.Polygon{geom.R(0, 0, 2000, 240).Polygon()}
	if _, _, err := f.CorrectWindowedCtx(ctx, warm, core.L3, b.tile, true); err != nil {
		return nil, fmt.Errorf("kernel warm-up: %w", err)
	}
	return b, nil
}

// tilePasses counts every (tile, pass) result however it was produced.
func tilePasses(st core.TileStats) int {
	return st.CorrectedTiles + st.ReusedTiles + st.CleanTiles + st.ResumedTiles +
		st.RemoteTiles + st.LibExactTiles + st.LibSimilarTiles
}

func runRoutedCold(ctx context.Context, cfg config) (*measured, error) {
	m := &measured{}
	var b *batch
	var err error
	for i := 0; i < routedSetups; i++ {
		b = nil
		runtime.GC()
		t0 := time.Now()
		if b, err = setupBatch(ctx, cfg.workload, cfg.seed, m); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		m.setup = append(m.setup, time.Since(t0).Seconds())
	}

	// Untraced phase: the end-to-end metrics.
	runtime.GC()
	var first passOut
	w := openWindow()
	for start := time.Now(); len(m.units) == 0 || time.Since(start).Seconds() < cfg.seconds; {
		snap := snapCounters()
		o, err := b.pass(ctx, nil, nil)
		if err != nil {
			return nil, err
		}
		o.counters = snap.delta()
		if len(m.units) == 0 {
			first = o
		}
		b.account(m, o, first)
	}
	m.timed = w.close()
	refCounters := map[string]int64{}
	for _, k := range determinismCounters {
		refCounters[k] = first.counters[k]
	}
	if err := checkReference(cfg, m, refEntry{
		SHA256: first.digest, MaskShots: first.ds.Shots, GDSBytes: first.gdsBytes,
		WorstRMSNM: first.stats.WorstRMS, Counters: refCounters,
	}); err != nil {
		return nil, err
	}
	m.fact("sha256", first.digest)
	m.fact("worst_rms_nm", first.stats.WorstRMS)
	m.fact("counters_per_pass", first.counters)
	if !cfg.trace {
		return m, nil
	}
	return m, b.traced(ctx, cfg, m, first)
}

// account folds one pass into the run and checks it: no degraded
// tile, the same output and work counters as the run's first pass, no
// pattern library use, and worst RMS under the fidelity ceiling.
func (b *batch) account(m *measured, o, first passOut) {
	m.units = append(m.units, o.wall)
	m.tailSamples = append(m.tailSamples, o.wall)
	m.completed++
	m.shots = append(m.shots, float64(o.ds.Shots))
	m.gdsBytes = append(m.gdsBytes, float64(o.gdsBytes))
	m.attempted++
	tp := tilePasses(o.stats)
	degraded := o.stats.DegradedRules + o.stats.DegradedUncorrected
	m.tilePasses += tp
	m.tileFailed += degraded
	bad := len(m.problems)
	n := len(m.units)
	if degraded > 0 {
		m.fail("pass %d: %d degraded tile-passes", n, degraded)
	}
	if o.digest != first.digest {
		m.fail("pass %d: output sha256 %s differs from pass 1 %s", n, o.digest, first.digest)
	}
	for _, k := range determinismCounters {
		if o.counters[k] != first.counters[k] {
			m.fail("pass %d: counter %s = %d, pass 1 had %d", n, k, o.counters[k], first.counters[k])
		}
	}
	if o.stats.LibExactTiles+o.stats.LibSimilarTiles > 0 {
		m.fail("pass %d: routed pass used a pattern library", n)
	}
	if o.stats.WorstRMS > routedRMSCeilingNM {
		m.fail("pass %d: worst RMS %.2f nm above %d nm", n, o.stats.WorstRMS, routedRMSCeilingNM)
	}
	if o.ds.Shots <= 0 || o.gdsBytes <= 0 {
		m.fail("pass %d: empty output (shots=%d bytes=%d)", n, o.ds.Shots, o.gdsBytes)
	}
	if len(m.problems) > bad {
		m.failed++
	}
}

// traced runs the traced phase: the same passes with the flight
// recorder, call spans and a CPU profile, then benchmark-timed probes of
// single layer entry points.
func (b *batch) traced(ctx context.Context, cfg config, m *measured, first passOut) error {
	untracedFlow := median(m.units)
	spans := newSpanLog()
	var prof bytes.Buffer
	runtime.GC()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	w := openWindow()
	var outs []passOut
	for start := time.Now(); len(outs) == 0 || time.Since(start).Seconds() < cfg.seconds; {
		rec := trace.New(0)
		snap := snapCounters()
		o, err := b.pass(ctx, spans, rec)
		if err != nil {
			pprof.StopCPUProfile()
			return err
		}
		o.counters = snap.delta()
		if d := rec.Drops(); d > 0 {
			m.fail("traced pass %d: flight recorder dropped %d events", len(outs)+1, d)
		}
		if o.digest != first.digest {
			m.fail("traced pass %d: output differs from the untraced passes", len(outs)+1)
		}
		outs = append(outs, o)
	}
	d := w.close()
	pprof.StopCPUProfile()
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return err
	}
	m.ledger = ledger(samples)
	m.spans = spans.spans

	n := float64(len(outs))
	var tracedUnits, analyze, write []float64
	var busy, correct float64
	for _, o := range outs {
		tracedUnits = append(tracedUnits, o.wall)
		analyze = append(analyze, o.analyzeS)
		write = append(write, o.writeS)
		busy += o.busyS
		correct += o.correctS
	}
	imageMS, err := aerialSampleMS(b.flow, b.target, b.tile, cfg.seed)
	if err != nil {
		return err
	}
	readS, err := readGDSSeconds(b.gds.Bytes())
	if err != nil {
		return err
	}
	st := first.stats
	extra := map[string]metric{
		"optics.image_ms":         {imageMS, unitMS},
		"mask.analyze_s":          {median(analyze), unitS},
		"gds.write_s":             {median(write), unitS},
		"gds.read_s":              {readS, unitS},
		"core.reuse_ratio":        {reuseRatio(st), unitRatio},
		"core.worker_busy_frac":   {busy / (correct * float64(runtime.GOMAXPROCS(0))), unitRatio},
		"core.worst_rms_nm":       {st.WorstRMS, "nm"},
		"obs.trace_overhead_frac": {(median(tracedUnits) - untracedFlow) / untracedFlow, unitRatio},
	}
	m.layer = layerMetrics(d, n, m, extra)
	return nil
}

// reuseRatio is the share of tile-passes served without a solve:
// dedup reuse, clean skips and library hits.
func reuseRatio(st core.TileStats) float64 {
	tp := tilePasses(st)
	if tp == 0 {
		return 0
	}
	return float64(st.ReusedTiles+st.CleanTiles+st.LibExactTiles+st.LibSimilarTiles) / float64(tp)
}

// imageSamples is how many tile windows the optics probe images.
const imageSamples = 8

// aerialSampleMS times Simulator.Aerial (kernel cache warm) on a seeded
// sample of the target's tile windows and returns the median in ms.
func aerialSampleMS(f *core.Flow, target []geom.Polygon, tile geom.Coord, seed int64) (float64, error) {
	if len(target) == 0 {
		return 0, fmt.Errorf("optics probe: empty target")
	}
	bounds := target[0].BBox()
	for _, p := range target[1:] {
		bounds = bounds.Union(p.BBox())
	}
	idx := geom.NewGridIndex(tile)
	for i, p := range target {
		idx.Insert(p.BBox(), int32(i))
	}
	var windows []geom.Rect
	for y := bounds.Y0; y < bounds.Y1; y += tile {
		for x := bounds.X0; x < bounds.X1; x += tile {
			core := geom.Rect{X0: x, Y0: y, X1: x + tile, Y1: y + tile}
			if len(idx.CollectIDs(core)) > 0 {
				windows = append(windows, core.Grow(f.Ambit))
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var ms []float64
	for i := 0; i < imageSamples && len(windows) > 0; i++ {
		win := windows[rng.Intn(len(windows))]
		var polys []geom.Polygon
		for _, id := range idx.CollectIDs(win) {
			polys = append(polys, target[id])
		}
		t0 := time.Now()
		if _, err := f.Sim.Aerial(polys, win); err != nil {
			return 0, fmt.Errorf("optics probe: %w", err)
		}
		ms = append(ms, time.Since(t0).Seconds()*1000)
	}
	return median(ms), nil
}

// readGDSSeconds times layout.ReadGDS on a GDS stream.
func readGDSSeconds(b []byte) (float64, error) {
	t0 := time.Now()
	if _, err := layout.ReadGDS(bytes.NewReader(b)); err != nil {
		return 0, fmt.Errorf("gds probe: %w", err)
	}
	return time.Since(t0).Seconds(), nil
}

// openLibSeconds times a read-only patlib.Open of a library file.
func openLibSeconds(path string) (float64, int, error) {
	t0 := time.Now()
	lib, err := patlib.Open(path, true)
	if err != nil {
		return 0, 0, err
	}
	s := time.Since(t0).Seconds()
	n := lib.Len()
	lib.Close()
	return s, n, nil
}
