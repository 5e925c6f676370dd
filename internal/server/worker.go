package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"goopc/internal/core"
	"goopc/internal/faults"
	"goopc/internal/geom"
	"goopc/internal/layout"
	"goopc/internal/layout/gen"
	"goopc/internal/obs"
	"goopc/internal/obs/trace"
	"goopc/internal/opc"
	"goopc/internal/optics"
	"goopc/internal/orc"
)

// worker is one pool goroutine: dequeue, run, repeat until stop.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j := s.next()
		if j == nil {
			return
		}
		s.runJob(j)
	}
}

// next blocks until a job is available or the server stops (then nil).
// The dequeued job transitions to running with a live cancel context.
func (s *Server) next() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.stopping {
			return nil
		}
		if j := s.queue.pop(); j != nil {
			j.state = StateRunning
			j.started = time.Now()
			j.runCtx, j.cancel = context.WithCancel(s.ctx)
			s.met.queueSeconds.Observe(j.started.Sub(j.submitted).Seconds())
			j.emit(trace.JobDequeued, "")
			j.emit(trace.JobRunning, "")
			s.met.queued.Set(float64(s.queue.Len()))
			s.met.running.Add(1)
			// Register the per-job tile series now so scrapes see the
			// job the moment it reports running, not after calibration.
			s.jobGaugesLocked(j.ID)
			s.persistLocked(j)
			j.bump()
			return j
		}
		s.cond.Wait()
	}
}

// runJob executes one job end to end and records the terminal state.
func (s *Server) runJob(j *Job) {
	s.log.Infof("job %s running (%s %s)", j.ID, j.Spec.Level, jobSource(j.Spec, j.upload))
	st, err := s.execute(j.runCtx, j)
	j.cancel()
	s.finish(j, st, err)
	s.writeTrace(j)
}

// writeTrace persists the job's flight-recorder timeline as a Chrome
// trace-event artifact once the job is terminal, so the trace survives
// a later daemon restart (the in-memory recorder does not). A
// shutdown-interrupted job skips it: the run resumes with a fresh
// recorder and writes the artifact when it actually finishes.
func (s *Server) writeTrace(j *Job) {
	s.mu.Lock()
	terminal, dir := j.state.Terminal(), j.dir
	s.mu.Unlock()
	if j.rec == nil || !terminal {
		return
	}
	f, err := os.Create(filepath.Join(dir, "trace.json"))
	if err != nil {
		s.log.Errorf("job %s: trace artifact: %v", j.ID, err)
		return
	}
	werr := j.rec.WriteChrome(f, jobChromeOptions(j.ID))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		s.log.Errorf("job %s: trace artifact: %v", j.ID, werr)
	}
}

// finish applies the terminal state transition under the server lock.
// A daemon shutdown is the one non-terminal outcome: the job's on-disk
// record stays "running" so the next Start requeues and resumes it.
func (s *Server) finish(j *Job, st *core.TileStats, err error) {
	wall := time.Since(j.started).Seconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.met.running.Add(-1)
	if st != nil {
		rs := runStatsFrom(*st)
		j.stats = &rs
	}
	switch {
	case err == nil:
		j.state = StateDone
	case j.cancelRequested:
		j.state = StateCancelled
	case s.stopping && errors.Is(err, context.Canceled):
		j.bump()
		s.log.Infof("job %s interrupted by shutdown; will resume on restart", j.ID)
		return
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
	}
	j.finished = time.Now()
	j.emit(trace.JobDone, string(j.state))
	s.met.finishedCounter(j.state).Inc()
	s.met.seconds.Observe(wall)
	s.met.runSeconds.Observe(wall)
	if j.state == StateDone {
		// Calibrate the Retry-After estimator on real completions.
		s.ewmaSec = 0.7*s.ewmaSec + 0.3*wall
	}
	s.persistLocked(j)
	j.bump()
	if j.state == StateFailed {
		s.log.Errorf("job %s failed: %s", j.ID, j.errMsg)
	} else {
		s.log.Infof("job %s %s (%.2fs)", j.ID, j.state, wall)
	}
}

// execute runs the correction and writes the job artifacts. It returns
// the tile stats (when the scheduler produced any) alongside the error
// so a partially-run cancelled job still reports progress.
func (s *Server) execute(ctx context.Context, j *Job) (*core.TileStats, error) {
	target, err := s.jobTarget(j)
	if err != nil {
		return nil, err
	}
	level, err := parseLevel(j.Spec.Level)
	if err != nil {
		return nil, err
	}
	base, err := s.flows.get(j.Spec.Flow)
	if err != nil {
		return nil, fmt.Errorf("flow calibration: %w", err)
	}

	// Private Flow copy: the calibrated parts (simulator, threshold,
	// rule table) are shared read-only across jobs, everything mutable
	// is per-job.
	f := *base
	fs := j.Spec.Flow
	if err := applyFlowSpec(&f, fs); err != nil {
		return nil, err
	}
	if j.Spec.Inject != "" {
		// Validated at admission; re-parse for the job's private plan so
		// probe counters never leak across jobs.
		f.FaultPlan, _ = faults.Parse(j.Spec.Inject)
	}
	if fs.PatternLib {
		// Shared across all opted-in jobs; nil (library not configured
		// or unavailable) simply leaves every rung missing.
		f.PatLib = s.patlib
	}

	// The job's flight recorder rides into the scheduler: tile events
	// land on worker rings 1..N alongside the lifecycle events the
	// server put on ring 0.
	f.Tracer = j.rec

	// Coordinator daemons offer each pass's unsolved classes to the
	// cluster first; classes the cluster cannot serve fall through to
	// the local solve below.
	if s.cfg.Cluster != nil {
		f.ClassSolver = s.clusterSolver(j)
	}

	g := s.jobGaugesFor(j.ID)
	f.Progress = func(ev core.ProgressEvent) {
		j.pass.Store(int64(ev.Pass))
		j.passes.Store(int64(ev.Passes))
		j.doneTiles.Store(int64(ev.DoneTiles))
		j.totalTiles.Store(int64(ev.TotalTiles))
		g.pass.Set(float64(ev.Pass))
		g.tilesDone.Set(float64(ev.DoneTiles))
		g.tilesTotal.Set(float64(ev.TotalTiles))
		j.bump()
	}

	// Checkpoint under the job dir: a daemon kill mid-job costs at most
	// CheckpointEvery of tile work on restart.
	ckptPath := filepath.Join(j.dir, "run.ckpt")
	f.CheckpointPath = ckptPath
	f.CheckpointEvery = s.cfg.CheckpointEvery
	if ck, err := core.LoadCheckpoint(ckptPath); err == nil {
		f.Resume = ck
	}

	tile := s.tileSize(j.Spec)
	res, st, err := f.CorrectWindowedCtx(ctx, target, level, tile, !s.cfg.SerialTiles)
	if err != nil && errors.Is(err, core.ErrCheckpointMismatch) {
		// The persisted checkpoint belongs to a different run shape
		// (e.g. the data dir was reused). Discard it and correct from
		// scratch rather than failing the job.
		s.log.Errorf("job %s: stale checkpoint discarded: %v", j.ID, err)
		os.Remove(ckptPath)
		f.Resume = nil
		res, st, err = f.CorrectWindowedCtx(ctx, target, level, tile, !s.cfg.SerialTiles)
	}
	if err != nil {
		return &st, err
	}
	n, err := s.writeResult(j, res.Corrected)
	if err != nil {
		return &st, err
	}
	s.mu.Lock()
	j.resultLen = n
	s.mu.Unlock()
	if err := s.writeReport(j, st); err != nil {
		return &st, err
	}
	if j.Spec.Verify {
		if err := s.writeOrc(ctx, j, &f, target, res.Corrected, tile); err != nil {
			return &st, fmt.Errorf("verify: %w", err)
		}
	}
	return &st, nil
}

// jobGaugesFor returns (creating if needed) the per-job metric gauges.
func (s *Server) jobGaugesFor(id string) *jobGauges {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobGaugesLocked(id)
}

func (s *Server) jobGaugesLocked(id string) *jobGauges {
	g := s.gauges[id]
	if g == nil {
		g = s.met.newJobGauges(id)
		s.gauges[id] = g
	}
	return g
}

// jobTarget re-derives the job's target geometry at run time: uploads
// decode the persisted input.gds, workloads regenerate deterministically
// (both give a recovered job the byte-identical target it was admitted
// with, which the checkpoint fingerprint then accepts).
func (s *Server) jobTarget(j *Job) ([]geom.Polygon, error) {
	if !j.upload {
		return workloadTarget(j.Spec.Workload)
	}
	f, err := os.Open(filepath.Join(j.dir, "input.gds"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ly, err := layout.ReadGDS(f)
	if err != nil {
		return nil, fmt.Errorf("input.gds: %w", err)
	}
	target := layout.Flatten(ly.Top, jobLayer(j.Spec))
	if len(target) == 0 {
		return nil, fmt.Errorf("input.gds has no geometry on layer %d", jobLayer(j.Spec))
	}
	return target, nil
}

// workloadTarget generates a named example layout. This mirrors opcflow
// exactly — same generators, same seed — so a server job on a workload
// is bit-identical to the equivalent opcflow run.
func workloadTarget(name string) ([]geom.Polygon, error) {
	ly := layout.New("workload")
	rng := rand.New(rand.NewSource(1))
	switch name {
	case "stdcell":
		lib, err := gen.BuildCellLib(ly, gen.Tech180())
		if err != nil {
			return nil, err
		}
		block, err := gen.BuildBlock(ly, lib, "BLOCK", 2, 4, rng)
		if err != nil {
			return nil, err
		}
		return layout.Flatten(block, layout.Poly), nil
	case "sram":
		arr, err := gen.BuildSRAM(ly, gen.Tech180(), "SRAM", 4, 4)
		if err != nil {
			return nil, err
		}
		return layout.Flatten(arr, layout.Poly), nil
	case "routed":
		blk, err := gen.BuildRoutedBlock(ly, gen.Tech180(), "RT", 20000, 20000, 16, rng)
		if err != nil {
			return nil, err
		}
		return layout.Flatten(blk, layout.Metal1), nil
	case "patterns":
		cell, _, err := gen.ThroughPitch(ly, "TP", layout.Poly, 180,
			[]geom.Coord{360, 520, 800}, 3000, 5)
		if err != nil {
			return nil, err
		}
		return layout.Flatten(cell, layout.Poly), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// writeResult writes result.gds exactly the way opcflow -out does (same
// structure, cell and OPC layer), so the artifact is byte-comparable.
func (s *Server) writeResult(j *Job, polys []geom.Polygon) (int64, error) {
	out := layout.New("corrected")
	cell := out.MustCell("TOP")
	l := jobLayer(j.Spec)
	for _, p := range polys {
		cell.AddPolygon(layout.OPCLayer(l), p)
	}
	out.SetTop(cell)
	f, err := os.Create(filepath.Join(j.dir, "result.gds"))
	if err != nil {
		return 0, err
	}
	n, werr := layout.WriteGDS(f, out)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return int64(n), werr
}

// writeReport writes the job's obs RunReport artifact (build
// fingerprint, spec, tile stats, registry snapshot).
func (s *Server) writeReport(j *Job, st core.TileStats) error {
	rep := obs.NewRunReport("opcd", nil, map[string]any{
		"job":   j.ID,
		"spec":  j.Spec,
		"stats": runStatsFrom(st),
	})
	rep.Finish(s.cfg.Registry, nil)
	if j.rec != nil {
		sum := j.rec.Summary()
		rep.Flight = &sum
	}
	return rep.WriteFile(filepath.Join(j.dir, "report.json"))
}

// OrcSummary is the orc.json artifact: post-OPC verification of the
// corrected mask against the drawn target, tile by tile.
type OrcSummary struct {
	Tiles         int      `json:"tiles"`
	Sites         int      `json:"sites"`
	WorstRMS      float64  `json:"worst_rms"`
	MaxEPE        float64  `json:"max_epe"`
	Pinches       int      `json:"pinches"`
	Bridges       int      `json:"bridges"`
	SideLobes     int      `json:"side_lobes"`
	EPEViolations int      `json:"epe_violations"`
	Hotspots      []string `json:"hotspots,omitempty"`
}

const maxOrcHotspots = 50

// writeOrc verifies the corrected mask tile by tile (target clipped to
// each tile core, mask taken over the haloed window so optical context
// is honest) and writes the orc.json summary.
func (s *Server) writeOrc(ctx context.Context, j *Job, f *core.Flow, target, corrected []geom.Polygon, tile geom.Coord) error {
	sum, err := verifyTiled(ctx, f, target, corrected, tile)
	if err != nil {
		return err
	}
	return writeJSONAtomic(filepath.Join(j.dir, "orc.json"), sum)
}

// verifyTiled runs the flow's Checker over each non-empty tile.
func verifyTiled(ctx context.Context, f *core.Flow, target, corrected []geom.Polygon, tile geom.Coord) (OrcSummary, error) {
	var sum OrcSummary
	if len(target) == 0 {
		return sum, nil
	}
	tgtIdx := geom.NewGridIndex(tile)
	bounds := target[0].BBox()
	for i, p := range target {
		bb := p.BBox()
		tgtIdx.Insert(bb, int32(i))
		bounds = bounds.Union(bb)
	}
	maskIdx := geom.NewGridIndex(tile)
	for i, p := range corrected {
		maskIdx.Insert(p.BBox(), int32(i))
	}
	for y := bounds.Y0; y < bounds.Y1; y += tile {
		for x := bounds.X0; x < bounds.X1; x += tile {
			if err := ctx.Err(); err != nil {
				return sum, err
			}
			coreR := geom.Rect{X0: x, Y0: y, X1: x + tile, Y1: y + tile}
			tgt := clipPolys(target, tgtIdx, coreR)
			if len(tgt) == 0 {
				continue
			}
			window := coreR.Grow(f.Ambit)
			mask := clipPolys(corrected, maskIdx, window)
			rep, err := f.Checker.Check(tgt, opc.Result{Corrected: mask}, window)
			if err != nil {
				return sum, err
			}
			sum.Tiles++
			sum.Sites += rep.EPE.Sites
			if rep.EPE.RMS > sum.WorstRMS {
				sum.WorstRMS = rep.EPE.RMS
			}
			if rep.EPE.Max > sum.MaxEPE {
				sum.MaxEPE = rep.EPE.Max
			}
			for _, h := range rep.Hotspots {
				switch h.Kind {
				case orc.Pinch:
					sum.Pinches++
				case orc.Bridge:
					sum.Bridges++
				case orc.SideLobe:
					sum.SideLobes++
				case orc.EPEViolation:
					sum.EPEViolations++
				}
				if len(sum.Hotspots) < maxOrcHotspots {
					sum.Hotspots = append(sum.Hotspots,
						fmt.Sprintf("%s at (%d,%d): %s", h.Kind, h.At.X, h.At.Y, h.Detail))
				}
			}
		}
	}
	return sum, nil
}

// clipPolys clips polygons (via the index) to a rectangle, fast-pathing
// those fully inside it.
func clipPolys(polys []geom.Polygon, idx *geom.GridIndex, clip geom.Rect) []geom.Polygon {
	region := geom.RegionFromRects(clip)
	var out []geom.Polygon
	for _, id := range idx.CollectIDs(clip) {
		p := polys[id]
		bb := p.BBox()
		if bb.Intersect(clip).Empty() {
			continue
		}
		if bb.X0 >= clip.X0 && bb.Y0 >= clip.Y0 && bb.X1 <= clip.X1 && bb.Y1 <= clip.Y1 {
			out = append(out, p)
			continue
		}
		out = append(out, geom.RegionFromPolygons(p).Intersect(region).Polygons()...)
	}
	return out
}

// flowCache shares expensive Flow calibrations (threshold + bias table)
// across jobs with the same calibration-relevant settings.
type flowCache struct {
	mu      sync.Mutex
	entries map[string]*flowEntry
}

type flowEntry struct {
	once sync.Once
	flow *core.Flow
	err  error
}

// get returns the calibrated Flow for a spec, building it at most once
// per calibration key (concurrent requesters share the same build).
func (c *flowCache) get(fs FlowSpec) (*core.Flow, error) {
	key := fs.calibKey()
	c.mu.Lock()
	if c.entries == nil {
		c.entries = map[string]*flowEntry{}
	}
	e := c.entries[key]
	if e == nil {
		e = &flowEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.flow, e.err = buildFlow(fs) })
	return e.flow, e.err
}

// buildFlow calibrates a Flow for the spec's optics/rule settings.
func buildFlow(fs FlowSpec) (*core.Flow, error) {
	s := optics.Default()
	if fs.SourceSteps > 0 {
		s.SourceSteps = fs.SourceSteps
	}
	if fs.GuardNM > 0 {
		s.GuardNM = fs.GuardNM
	}
	return core.NewFlow(core.Options{
		Optics:      s,
		AnchorCD:    fs.AnchorCD,
		AnchorPitch: fs.AnchorPitch,
		BiasSpaces:  fs.BiasSpaces,
	})
}
