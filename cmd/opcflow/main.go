// Command opcflow runs the full OPC adoption flow on a layer: correct
// at a chosen level (or all levels), verify, and print the impact
// report — fidelity gained, mask data paid. Input is a GDSII file or a
// built-in generated workload.
//
// Usage:
//
//	opcflow -workload stdcell [-level L3] [-out corrected.gds]
//	opcflow -gds in.gds -layer 2 [-level all]
//	opcflow -gds in.gds -deck job.json [-out corrected.gds]
//
// Observability:
//
//	opcflow -workload routed -level L3 -report run.json -obs-listen :9090
//	opcflow -workload stdcell -level L3 -trace run.trace.json
//
// -report writes an obs.RunReport (metrics snapshot + phase trace tree
// + build/settings fingerprint) after the run; -obs-listen serves the
// live inspector (/metrics, /status, /debug/pprof) while it is in
// flight. -trace attaches the tile-level flight recorder to the tiled
// engine and writes the merged timeline as Chrome trace-event JSON
// (load it in Perfetto or chrome://tracing); the event counts are
// reconciled against the scheduler's TileStats before the file is
// trusted, and a lossy or inconsistent timeline fails the run. -v / -q
// raise / silence progress output (progress goes to stderr; result
// tables stay on stdout).
//
// Fault tolerance (tiled runs; see DESIGN.md 5e):
//
//	opcflow -workload routed -level L3 -ckpt run.ckpt -deadline 10m
//	opcflow -workload routed -level L3 -resume run.ckpt
//	opcflow -workload routed -level L3 -inject 'seed=42;tile:panic:n=2'
//
// -ckpt checkpoints completed tile classes periodically and on exit
// (including SIGINT/SIGTERM, which cancel the run cleanly); -resume
// seeds a run from such a checkpoint, skipping finished work;
// -tile-timeout / -deadline bound each tile attempt / the whole run;
// -inject arms the deterministic fault-injection harness.
//
// Exit codes: 0 success, 1 internal/runtime failure, 2 usage error,
// 3 invalid input (unreadable or malformed GDS/deck/checkpoint).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"goopc/internal/core"
	"goopc/internal/faults"
	"goopc/internal/geom"
	"goopc/internal/jobdeck"
	"goopc/internal/layout"
	"goopc/internal/layout/gen"
	"goopc/internal/obs"
	"goopc/internal/obs/trace"
	"goopc/internal/optics"
	"goopc/internal/prior"
)

// Exit codes. Everything funnels through run() so the run report and
// any checkpoint are flushed no matter how the run ends.
const (
	exitOK       = 0
	exitInternal = 1
	exitUsage    = 2
	exitInput    = 3
)

// usageError and inputError tag an error with its exit code; anything
// untagged exits exitInternal.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

type inputError struct{ err error }

func (e inputError) Error() string { return e.err.Error() }
func (e inputError) Unwrap() error { return e.err }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

func inputf(format string, args ...any) error {
	return inputError{fmt.Errorf(format, args...)}
}

func exitCode(err error) int {
	if err == nil {
		return exitOK
	}
	var ue usageError
	if errors.As(err, &ue) {
		return exitUsage
	}
	var ie inputError
	if errors.As(err, &ie) {
		return exitInput
	}
	return exitInternal
}

// app carries the run-wide observability handles.
type app struct {
	log  *obs.Logger
	root *obs.Span
	// tracer is the -trace flight recorder (nil when tracing is off);
	// traceWant accumulates the TileStats-derived expectation across the
	// tiled runs that share it, for the post-run reconciliation.
	tracer    *trace.Recorder
	traceWant trace.TileCounts
}

// resilienceCfg groups the fault-tolerance flags applied to the tiled
// correction engine.
type resilienceCfg struct {
	ckptPath    string
	ckptEvery   time.Duration
	resumePath  string
	inject      string
	tileTimeout time.Duration
	deadline    time.Duration
	patlibPath  string
	patlibRO    bool
	priorPath   string
}

// apply wires the config into the flow, loading the resume checkpoint
// and parsing the fault plan.
func (rc *resilienceCfg) apply(flow *core.Flow) error {
	flow.CheckpointPath = rc.ckptPath
	flow.CheckpointEvery = rc.ckptEvery
	flow.TileTimeout = rc.tileTimeout
	flow.Deadline = rc.deadline
	if rc.resumePath != "" {
		ck, err := core.LoadCheckpoint(rc.resumePath)
		if err != nil {
			return inputError{err}
		}
		flow.Resume = ck
		if flow.CheckpointPath == "" {
			// Keep checkpointing to the file we resumed from, so a
			// second interruption also costs no completed work.
			flow.CheckpointPath = rc.resumePath
		}
	}
	if rc.inject != "" {
		plan, err := faults.Parse(rc.inject)
		if err != nil {
			return usageError{err}
		}
		flow.FaultPlan = plan
	}
	flow.PatternLibPath = rc.patlibPath
	flow.PatLibReadOnly = rc.patlibRO
	if rc.priorPath != "" {
		tab, err := prior.Load(rc.priorPath)
		if err != nil {
			return inputError{err}
		}
		flow.Prior = tab
	}
	return nil
}

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the single exit path: it parses flags, executes the job, and
// always flushes the run report before returning an exit code.
func run(args []string) int {
	fs := flag.NewFlagSet("opcflow", flag.ContinueOnError)
	gdsPath := fs.String("gds", "", "GDSII input file")
	layerNum := fs.Int("layer", 2, "layer to correct")
	workload := fs.String("workload", "", "built-in workload: stdcell | sram | routed | patterns")
	levelFlag := fs.String("level", "all", "adoption level: L0 | L1 | L2 | L3 | all")
	outPath := fs.String("out", "", "write corrected geometry to this GDSII file (single level only)")
	deckPath := fs.String("deck", "", "JSON job deck: run a multi-layer tape-out job")
	fast := fs.Bool("fast", true, "reduced source sampling for speed")
	reportPath := fs.String("report", "", "write an obs RunReport (JSON) to this file")
	tracePath := fs.String("trace", "", "write the tiled run's flight-recorder timeline as Chrome trace-event JSON to this file")
	obsListen := fs.String("obs-listen", "", "serve the live inspector (/metrics, /status, /debug/pprof) on this address, e.g. :9090")
	verbose := fs.Bool("v", false, "verbose progress output")
	quiet := fs.Bool("q", false, "suppress progress output (errors still print)")
	version := fs.Bool("version", false, "print the build fingerprint and exit")
	rc := resilienceCfg{}
	fs.StringVar(&rc.ckptPath, "ckpt", "", "checkpoint completed tile classes to this file (periodic + on exit)")
	fs.DurationVar(&rc.ckptEvery, "ckpt-every", 0, "minimum interval between periodic checkpoint writes (default 30s)")
	fs.StringVar(&rc.resumePath, "resume", "", "resume from this checkpoint file, skipping finished tile classes")
	fs.StringVar(&rc.inject, "inject", "", `deterministic fault plan, e.g. 'seed=42;tile:panic:n=2;tile:delay:p=0.1:d=50ms'`)
	fs.DurationVar(&rc.tileTimeout, "tile-timeout", 0, "per-tile correction attempt timeout (0 = none)")
	fs.DurationVar(&rc.deadline, "deadline", 0, "whole-run deadline (0 = none)")
	fs.StringVar(&rc.patlibPath, "patlib", "", "persistent cross-run pattern library file (tiled runs; see DESIGN.md 5f)")
	fs.BoolVar(&rc.patlibRO, "patlib-readonly", false, "consult the pattern library without persisting new solutions")
	fs.StringVar(&rc.priorPath, "prior", "", "learned initial-bias prior table (datasetgen fit; DESIGN.md 5j): warm-starts model-OPC runs")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *version {
		fmt.Println("opcflow", obs.CollectBuildInfo())
		return exitOK
	}
	a := &app{
		log:  obs.NewLogger(os.Stderr, obs.ParseLogLevel(*quiet, *verbose), "opcflow"),
		root: obs.NewSpan("opcflow", obs.Default()),
	}
	if *tracePath != "" {
		a.tracer = trace.New(0)
	}

	// SIGINT/SIGTERM cancel the run context: the tiled engine drains its
	// workers, flushes a final checkpoint, and we still write the run
	// report below before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	if *obsListen != "" {
		ins := &obs.Inspector{}
		addr, ierr := ins.ListenAndServe(*obsListen)
		if ierr != nil {
			a.log.Errorf("obs-listen: %v", ierr)
			return exitInternal
		}
		// A SIGINT/SIGTERM drains the inspector (in-flight /metrics
		// scrapes finish) via the shared lifecycle helper; a normal exit
		// shuts it down directly. Shutdown is idempotent, so whichever
		// path fires second is a no-op.
		obs.ShutdownOnCancel(ctx, 2*time.Second, ins.Shutdown)
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = ins.Shutdown(sctx)
		}()
		a.log.Infof("inspector on http://%s (/metrics /status /debug/pprof)", addr)
	}
	var rep *obs.RunReport
	if *reportPath != "" {
		rep = obs.NewRunReport("opcflow", args, map[string]any{
			"gds": *gdsPath, "layer": *layerNum, "workload": *workload,
			"level": *levelFlag, "deck": *deckPath, "fast": *fast,
			"ckpt": rc.ckptPath, "resume": rc.resumePath, "inject": rc.inject,
			"patlib": rc.patlibPath, "prior": rc.priorPath,
		})
	}

	if *deckPath != "" {
		if a.tracer != nil {
			a.log.Errorf("-trace covers the level flow only; deck runs are not traced")
		}
		err = a.runDeck(*deckPath, *gdsPath, *outPath)
	} else {
		err = a.runLevels(ctx, *gdsPath, layout.Layer(*layerNum), *workload, *levelFlag, *outPath, *fast, &rc)
	}
	a.root.End()
	if a.tracer != nil {
		sum := a.tracer.Summary()
		if rep != nil {
			rep.Flight = &sum
		}
		// Only a clean run can reconcile (a cancelled or failed one has
		// legitimately missing outcomes); its timeline still gets written
		// for post-mortem reading either way.
		if terr := a.writeTraceFile(*tracePath, sum, err == nil); terr != nil {
			a.log.Errorf("trace: %v", terr)
			if err == nil {
				err = terr
			}
		}
	}
	if rep != nil {
		rep.Finish(obs.Default(), a.root)
		if werr := rep.WriteFile(*reportPath); werr != nil {
			a.log.Errorf("report: %v", werr)
			if err == nil {
				err = werr
			}
		} else {
			a.log.Infof("wrote run report %s", *reportPath)
		}
	}
	if err != nil {
		a.log.Errorf("%v", err)
		return exitCode(err)
	}
	return exitOK
}

// writeTraceFile reconciles the recorded timeline against the
// scheduler's accumulated TileStats expectation and writes it as Chrome
// trace-event JSON. A trace that dropped events or disagrees with the
// stats is an error: a timeline that cannot account for the run is
// worse than none.
func (a *app) writeTraceFile(path string, sum trace.Summary, reconcile bool) error {
	if reconcile {
		if err := core.ReconcileTrace(sum, a.traceWant); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := a.tracer.WriteChrome(f, trace.ChromeOptions{PID: 1, ProcessName: "opcflow"})
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	a.log.Infof("wrote trace %s (%d events, %d workers, drops=%d); open it in Perfetto or chrome://tracing",
		path, sum.Events, sum.Workers, sum.Drops)
	return nil
}

// runDeck executes a JSON job deck against a GDSII layout and writes
// the layout (now carrying OPC output layers) back out.
func (a *app) runDeck(deckPath, gdsPath, outPath string) error {
	sp := a.root.Start("load")
	df, err := os.Open(deckPath)
	if err != nil {
		sp.End()
		return inputError{err}
	}
	deck, err := jobdeck.Parse(df)
	df.Close()
	if err != nil {
		sp.End()
		return inputError{err}
	}
	if gdsPath == "" {
		sp.End()
		return usagef("-deck needs -gds input")
	}
	gf, err := os.Open(gdsPath)
	if err != nil {
		sp.End()
		return inputError{err}
	}
	ly, err := layout.ReadGDS(gf)
	gf.Close()
	sp.End()
	if err != nil {
		return inputError{err}
	}
	a.log.Infof("deck %q on %q: calibrating...", deck.Name, gdsPath)
	sp = a.root.Start("deck-run")
	rep, err := jobdeck.Run(deck, ly)
	sp.End()
	if err != nil {
		return err
	}
	fmt.Printf("threshold %.3f\n", rep.Threshold)
	for _, lr := range rep.Layers {
		fmt.Printf("  layer %v %-16s mode=%-4s cells=%d tiles=%d figures=%d %.1fs\n",
			lr.Layer, lr.Level, lr.Mode, lr.Cells, lr.Tiles, lr.Figures, lr.Seconds)
	}
	if outPath != "" {
		sp = a.root.Start("write")
		defer sp.End()
		out, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer out.Close()
		n, err := layout.WriteGDS(out, ly)
		if err != nil {
			return err
		}
		a.log.Infof("wrote %s (%d bytes, drawn + OPC layers)", outPath, n)
	}
	return nil
}

func (a *app) runLevels(ctx context.Context, gdsPath string, l layout.Layer, workload, levelFlag, outPath string, fast bool, rc *resilienceCfg) error {
	sp := a.root.Start("load")
	target, err := loadTarget(gdsPath, l, workload)
	sp.End()
	if err != nil {
		return err
	}
	a.log.Infof("target: %d polygons on layer %v", len(target), l)

	s := optics.Default()
	if fast {
		s.SourceSteps = 5
		s.GuardNM = 1200
	}
	a.log.Infof("calibrating flow (threshold + rule table)...")
	sp = a.root.Start("calibrate")
	flow, err := core.NewFlow(core.Options{Optics: s, BiasSpaces: []geom.Coord{240, 320, 420, 560}})
	sp.End()
	if err != nil {
		return err
	}
	if err := rc.apply(flow); err != nil {
		return err
	}
	a.log.Infof("calibrated: threshold=%.3f ambit=%d nm", flow.Threshold, flow.Ambit)

	levels, err := parseLevels(levelFlag)
	if err != nil {
		return err
	}
	for _, level := range levels {
		sp := a.root.Start("correct-" + level.String())
		if len(target) > 40 {
			// Large targets go through the tiled engine; report data only.
			a.log.Verbosef("%s: tiled correction, %d polygons", level, len(target))
			flow.Span = sp
			flow.Tracer = a.tracer
			res, st, err := flow.CorrectWindowedCtx(ctx, target, level, 4*flow.Ambit, true)
			flow.Span = nil
			a.traceWant = a.traceWant.Add(st.ExpectedTraceCounts())
			if err != nil {
				sp.End()
				if errors.Is(err, core.ErrCheckpointMismatch) {
					// A -resume checkpoint from a different target or
					// settings is bad input, not an engine failure.
					return inputError{err}
				}
				return err
			}
			fmt.Printf("%-16s tiles=%d time=%.2fs worstRMS=%.2f polygons=%d\n",
				level, st.Tiles, st.Seconds, st.WorstRMS, len(res.Corrected))
			if st.LibExactTiles+st.LibSimilarTiles+st.LibHaloRejects+st.LibMisses+st.LibAppends > 0 {
				fmt.Printf("%-16s patlib: exact=%d similar=%d halo-rejects=%d misses=%d appends=%d\n",
					level, st.LibExactTiles, st.LibSimilarTiles, st.LibHaloRejects,
					st.LibMisses, st.LibAppends)
			}
			if st.WarmTiles > 0 || st.PriorSavedIters > 0 {
				fmt.Printf("%-16s prior: warm-tiles=%d warm-fragments=%d saved-iterations=%d\n",
					level, st.WarmTiles, st.WarmFragments, st.PriorSavedIters)
			}
			if st.Retries+st.Panics+st.Timeouts+st.ResumedTiles+len(st.Degradations) > 0 {
				fmt.Printf("%-16s resilience: retries=%d panics=%d timeouts=%d resumed=%d degraded-rules=%d degraded-uncorrected=%d\n",
					level, st.Retries, st.Panics, st.Timeouts, st.ResumedTiles,
					st.DegradedRules, st.DegradedUncorrected)
				for _, d := range st.Degradations {
					a.log.Infof("degraded tile pass=%d core=%v members=%d mode=%s: %s",
						d.Pass, d.Tile, d.Members, d.Mode, d.Err)
				}
			}
			if outPath != "" && len(levels) == 1 {
				if err := a.writeOut(outPath, res.Corrected, l); err != nil {
					sp.End()
					return err
				}
			}
			sp.End()
			continue
		}
		imp, err := flow.Assess(target, level)
		if err != nil {
			sp.End()
			return err
		}
		fmt.Printf("%-16s EPE mean=%.1f rms=%.1f max=%.1f nm | hotspots pinch=%d bridge=%d lobe=%d epe=%d | figures=%d shots=%d gds=%dB mrc=%d | correct=%.2fs verify=%.2fs\n",
			imp.Level, imp.EPE.MeanAbs, imp.EPE.RMS, imp.EPE.Max,
			imp.Pinches, imp.Bridges, imp.SideLobes, imp.EPEViolations,
			imp.Data.Figures, imp.Data.Shots, imp.Data.GDSBytes, imp.MRCViolations,
			imp.CorrectSec, imp.VerifySec)
		if outPath != "" && len(levels) == 1 {
			res, _, err := flow.Correct(target, level)
			if err != nil {
				sp.End()
				return err
			}
			if err := a.writeOut(outPath, res.AllMask(), l); err != nil {
				sp.End()
				return err
			}
		}
		sp.End()
	}
	return nil
}

func loadTarget(gdsPath string, l layout.Layer, workload string) ([]geom.Polygon, error) {
	if gdsPath != "" {
		f, err := os.Open(gdsPath)
		if err != nil {
			return nil, inputError{err}
		}
		defer f.Close()
		ly, err := layout.ReadGDS(f)
		if err != nil {
			return nil, inputError{err}
		}
		return layout.Flatten(ly.Top, l), nil
	}
	ly := layout.New("workload")
	rng := rand.New(rand.NewSource(1))
	switch workload {
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
	case "":
		return nil, usagef("need -gds or -workload")
	}
	return nil, usagef("unknown workload %q", workload)
}

func parseLevels(s string) ([]core.Level, error) {
	if strings.EqualFold(s, "all") {
		return core.Levels, nil
	}
	switch strings.ToUpper(s) {
	case "L0":
		return []core.Level{core.L0}, nil
	case "L1":
		return []core.Level{core.L1}, nil
	case "L2":
		return []core.Level{core.L2}, nil
	case "L3":
		return []core.Level{core.L3}, nil
	}
	return nil, usagef("unknown level %q", s)
}

func (a *app) writeOut(path string, polys []geom.Polygon, l layout.Layer) error {
	out := layout.New("corrected")
	cell := out.MustCell("TOP")
	for _, p := range polys {
		cell.AddPolygon(layout.OPCLayer(l), p)
	}
	out.SetTop(cell)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := layout.WriteGDS(f, out)
	if err != nil {
		return err
	}
	a.log.Infof("wrote %s (%d bytes)", path, n)
	return nil
}
