// Package server is the OPC-as-a-service layer: a long-running job
// server (the opcd daemon) that accepts correction jobs over HTTP —
// a GDSII upload or a named example workload, plus Flow settings as
// JSON — queues them with admission control and backpressure, runs
// them through the core tiled scheduler on a bounded worker pool, and
// serves the corrected GDS plus run-report/ORC artifacts back.
//
// The package is the paper's end state made concrete: OPC not as a
// per-tapeout batch step but as a shared production service every
// layout passes through. Jobs survive daemon restarts (spec, state and
// the core checkpoint persist under the data directory), progress
// streams live over SSE from the scheduler's tile gauges, and the
// /metrics, /status and /debug/pprof inspector routes share the job
// API's listener.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"goopc/internal/core"
	"goopc/internal/faults"
	"goopc/internal/geom"
	"goopc/internal/obs/trace"
)

// State is a job's lifecycle position.
type State string

// Job lifecycle. Queued and Running are live states; the other three
// are terminal. DELETE on a live job cancels it; DELETE on a terminal
// job purges it from the server.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// FlowSpec is the JSON shape of the per-job Flow settings. The
// calibration-relevant fields (optics sampling, bias spaces, anchor)
// key the server's calibrated-flow cache; the remaining knobs apply to
// the job's private Flow copy. Zero values take the same defaults
// opcflow uses, so a job with an empty FlowSpec corrects exactly like
// `opcflow -fast=false`.
type FlowSpec struct {
	// SourceSteps and GuardNM override the optics sampling (opcflow
	// -fast uses 5 / 1200).
	SourceSteps int     `json:"sourceSteps,omitempty"`
	GuardNM     float64 `json:"guardNM,omitempty"`
	// BiasSpaces are the rule-table environment bins.
	BiasSpaces []geom.Coord `json:"biasSpaces,omitempty"`
	// AnchorCD / AnchorPitch override the dose-to-size anchor.
	AnchorCD    geom.Coord `json:"anchorCD,omitempty"`
	AnchorPitch geom.Coord `json:"anchorPitch,omitempty"`
	// TilePasses / ConvergeEps tune the tiled scheduler (0 keeps the
	// Flow defaults; ConvergeEps < 0 disables the early exit).
	TilePasses  int     `json:"tilePasses,omitempty"`
	ConvergeEps float64 `json:"convergeEps,omitempty"`
	// TileRetries (-1 disables), TileTimeout and Deadline bound the
	// resilience ladder; durations parse with time.ParseDuration.
	TileRetries int    `json:"tileRetries,omitempty"`
	TileTimeout string `json:"tileTimeout,omitempty"`
	Deadline    string `json:"deadline,omitempty"`
	// PatternLib opts the job into the daemon's shared cross-run
	// pattern library (requires opcd -patlib; ignored otherwise).
	// Deliberately not part of the calibration key — the library is a
	// scheduler-level cache, not a flow setting.
	PatternLib bool `json:"patternLib,omitempty"`
	// Prior is a daemon-local path to a fitted initial-bias prior table
	// (datasetgen fit; DESIGN.md 5j) that warm-starts the job's model
	// iterations. Coordinator and workers each load the path from their
	// own filesystem — deploy the same table everywhere, or remote class
	// solves fail. Like PatternLib it is not part of the calibration
	// key: the prior seeds iteration, it does not change calibration.
	Prior string `json:"prior,omitempty"`
}

// calibKey returns the cache key for the calibration this spec needs.
func (fs FlowSpec) calibKey() string {
	return fmt.Sprintf("src=%d|guard=%g|bias=%v|anchor=%d/%d",
		fs.SourceSteps, fs.GuardNM, fs.BiasSpaces, fs.AnchorCD, fs.AnchorPitch)
}

// JobSpec describes one correction job: what to correct (an uploaded
// GDS layer or a named example workload), at which adoption level, and
// under which Flow settings.
type JobSpec struct {
	// Name is a free-form label for humans; the server assigns the ID.
	Name string `json:"name,omitempty"`
	// Workload names a built-in example layout (stdcell | sram |
	// routed | patterns) — mutually exclusive with a GDS upload.
	Workload string `json:"workload,omitempty"`
	// Layer selects the drawn layer to correct (default 2, poly).
	Layer int `json:"layer,omitempty"`
	// Level is the adoption level: L0 | L1 | L2 | L3.
	Level string `json:"level"`
	// TileNM is the scheduler tile size in DBU (0 uses 4x the ambit).
	TileNM geom.Coord `json:"tileNM,omitempty"`
	// Priority orders the queue (higher first, FIFO within a level).
	Priority int `json:"priority,omitempty"`
	// Tenant attributes the job for multi-tenant fair queueing: the
	// dequeue order interleaves tenants by weighted fair share, and
	// opcd's per-tenant quota caps how many jobs one tenant may have
	// queued. Empty is the shared default tenant.
	Tenant string `json:"tenant,omitempty"`
	// Inject arms the per-job deterministic fault plan (the faults
	// grammar, e.g. "seed=1;tile:panic:n=1") — chaos testing a live
	// server without hurting other jobs.
	Inject string `json:"inject,omitempty"`
	// Verify runs post-OPC verification tile by tile after correction
	// and writes the orc.json artifact.
	Verify bool `json:"verify,omitempty"`
	// Flow carries the per-job Flow settings.
	Flow FlowSpec `json:"flow,omitempty"`
}

// DecodeSpec decodes exactly one JSON value from r into v (a JobSpec or
// FlowSpec), rejecting fields v does not declare and trailing data: a
// misspelled or retired knob fails admission instead of silently
// taking its default.
func DecodeSpec(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// parseLevel maps the spec's level string to the core adoption level.
func parseLevel(s string) (core.Level, error) {
	switch strings.ToUpper(s) {
	case "L0":
		return core.L0, nil
	case "L1":
		return core.L1, nil
	case "L2":
		return core.L2, nil
	case "L3":
		return core.L3, nil
	}
	return 0, fmt.Errorf("unknown level %q (want L0..L3)", s)
}

// validate rejects malformed specs at admission time.
func (js *JobSpec) validate(hasUpload bool) error {
	if _, err := parseLevel(js.Level); err != nil {
		return err
	}
	switch js.Workload {
	case "", "stdcell", "sram", "routed", "patterns":
	default:
		return fmt.Errorf("unknown workload %q", js.Workload)
	}
	if js.Workload == "" && !hasUpload {
		return fmt.Errorf("job needs a GDS upload body or a named workload")
	}
	if js.Workload != "" && hasUpload {
		return fmt.Errorf("job has both a GDS upload and a workload; pick one")
	}
	if js.Inject != "" {
		if _, err := faults.Parse(js.Inject); err != nil {
			return err
		}
	}
	if _, err := parseDuration(js.Flow.TileTimeout); err != nil {
		return fmt.Errorf("tileTimeout: %w", err)
	}
	if _, err := parseDuration(js.Flow.Deadline); err != nil {
		return fmt.Errorf("deadline: %w", err)
	}
	if js.Flow.Prior != "" {
		// Fail at admission, not mid-run: the table must load on this
		// daemon (workers validate their own copy per solve).
		if _, err := loadPrior(js.Flow.Prior); err != nil {
			return err
		}
	}
	return nil
}

// parseDuration parses an optional duration string ("" is zero).
func parseDuration(s string) (time.Duration, error) {
	if s == "" {
		return 0, nil
	}
	return time.ParseDuration(s)
}

// RunStats is the correction outcome surfaced in a job's status: the
// core TileStats resilience and reuse accounting, minus the bulky
// per-degradation records (those live in the run report artifact).
type RunStats struct {
	Tiles          int     `json:"tiles"`
	CorrectedTiles int     `json:"corrected_tiles"`
	ReusedTiles    int     `json:"reused_tiles"`
	CleanTiles     int     `json:"clean_tiles"`
	ResumedTiles   int     `json:"resumed_tiles"`
	RemoteTiles    int     `json:"remote_tiles,omitempty"`
	Retries        int     `json:"retries"`
	Panics         int     `json:"panics"`
	Timeouts       int     `json:"timeouts"`
	FailedTiles    int     `json:"failed_tiles"`
	Iterations     int     `json:"iterations"`
	Seconds        float64 `json:"seconds"`
	WorstRMS       float64 `json:"worst_rms"`
	Polygons       int     `json:"polygons"`
	// Pattern-library accounting for jobs that opted in (zero
	// otherwise): tiles served from the shared cross-run library by the
	// exact and similarity rungs, similarity candidates rejected by the
	// halo-validity check, probed classes that missed, and solved
	// classes appended back.
	LibExactTiles   int `json:"patlib_exact_tiles,omitempty"`
	LibSimilarTiles int `json:"patlib_similarity_tiles,omitempty"`
	LibHaloRejects  int `json:"patlib_halo_rejections,omitempty"`
	LibMisses       int `json:"patlib_misses,omitempty"`
	LibAppends      int `json:"patlib_appends,omitempty"`
	// Model-iteration summary (DESIGN.md 5j): MeanIterations averages
	// Iterations over freshly corrected tiles; the prior fields are
	// nonzero only when FlowSpec.Prior warm-started model runs.
	MeanIterations  float64 `json:"mean_iterations,omitempty"`
	WarmTiles       int     `json:"warm_tiles,omitempty"`
	WarmFragments   int     `json:"warm_fragments,omitempty"`
	PriorSavedIters int     `json:"prior_saved_iterations,omitempty"`
}

// runStatsFrom folds core TileStats into the status shape. FailedTiles
// counts the (tile, pass) results that fell down the degradation
// ladder — geometry that shipped rule-based or uncorrected and must be
// re-verified before tape-out.
func runStatsFrom(st core.TileStats) RunStats {
	return RunStats{
		Tiles:          st.Tiles,
		CorrectedTiles: st.CorrectedTiles,
		ReusedTiles:    st.ReusedTiles,
		CleanTiles:     st.CleanTiles,
		ResumedTiles:   st.ResumedTiles,
		RemoteTiles:    st.RemoteTiles,
		Retries:        st.Retries,
		Panics:         st.Panics,
		Timeouts:       st.Timeouts,
		FailedTiles:    st.DegradedRules + st.DegradedUncorrected,
		Iterations:     st.Iterations,
		Seconds:        st.Seconds,
		WorstRMS:       st.WorstRMS,
		Polygons:       st.Corrected,

		LibExactTiles:   st.LibExactTiles,
		LibSimilarTiles: st.LibSimilarTiles,
		LibHaloRejects:  st.LibHaloRejects,
		LibMisses:       st.LibMisses,
		LibAppends:      st.LibAppends,

		MeanIterations:  meanIterations(st),
		WarmTiles:       st.WarmTiles,
		WarmFragments:   st.WarmFragments,
		PriorSavedIters: st.PriorSavedIters,
	}
}

func meanIterations(st core.TileStats) float64 {
	if st.CorrectedTiles == 0 {
		return 0
	}
	return float64(st.Iterations) / float64(st.CorrectedTiles)
}

// JobStatus is the wire shape of one job, served by GET /jobs/{id} and
// streamed over SSE.
type JobStatus struct {
	ID        string             `json:"id"`
	State     State              `json:"state"`
	Spec      JobSpec            `json:"spec"`
	Upload    bool               `json:"upload,omitempty"`
	QueuePos  int                `json:"queue_pos,omitempty"`
	Submitted time.Time          `json:"submitted"`
	Started   time.Time          `json:"started"`
	Finished  time.Time          `json:"finished"`
	Progress  core.ProgressEvent `json:"progress"`
	Stats     *RunStats          `json:"stats,omitempty"`
	// Recovered marks a job requeued by crash recovery after a daemon
	// restart; its checkpointed tiles resume instead of re-correcting.
	Recovered bool `json:"recovered,omitempty"`
	// Error is the failure message for failed jobs.
	Error string `json:"error,omitempty"`
	// ResultBytes is the size of the result.gds artifact once done.
	ResultBytes int64 `json:"result_bytes,omitempty"`
	// Latency is the queued→running→done wall-clock breakdown; live
	// jobs report the elapsed-so-far leg.
	Latency *JobLatency `json:"latency,omitempty"`
}

// JobLatency decomposes a job's end-to-end wall clock into its queue
// wait and its run time (the same split the
// goopc_server_job_queue_seconds / goopc_server_job_run_seconds
// histograms aggregate across jobs).
type JobLatency struct {
	QueueSeconds float64 `json:"queue_seconds"`
	RunSeconds   float64 `json:"run_seconds"`
	TotalSeconds float64 `json:"total_seconds"`
}

// latency computes the breakdown at time now. Legs still in flight
// (queued, running) report elapsed time so far; a job cancelled while
// queued closes its queue leg at the cancellation instant.
func (j *Job) latency(now time.Time) *JobLatency {
	if j.submitted.IsZero() {
		return nil
	}
	queueEnd := j.started
	if queueEnd.IsZero() {
		if queueEnd = j.finished; queueEnd.IsZero() {
			queueEnd = now
		}
	}
	l := &JobLatency{QueueSeconds: queueEnd.Sub(j.submitted).Seconds()}
	if !j.started.IsZero() {
		runEnd := j.finished
		if runEnd.IsZero() {
			runEnd = now
		}
		l.RunSeconds = runEnd.Sub(j.started).Seconds()
	}
	l.TotalSeconds = l.QueueSeconds + l.RunSeconds
	return l
}

// Job is the server-side job state. Mutable fields are guarded by the
// owning Server's mutex except the progress atomics, which scheduler
// worker goroutines update directly.
type Job struct {
	ID   string
	Spec JobSpec
	// dir is the job's artifact directory under the server data dir.
	dir string
	// upload marks a GDS-upload job (input.gds holds the stream).
	upload bool
	// seq orders FIFO within a priority level.
	seq int64

	state     State
	recovered bool
	errMsg    string
	submitted time.Time
	started   time.Time
	finished  time.Time
	stats     *RunStats
	resultLen int64

	// runCtx is the job's run-scoped context, derived from the server
	// lifecycle context when a worker dequeues the job.
	runCtx context.Context
	// cancel aborts the running correction; cancelRequested separates
	// a client DELETE (terminal: cancelled) from a daemon shutdown
	// (job stays running on disk and recovers on restart).
	cancel          func()
	cancelRequested bool

	// rec is the job's flight recorder: lifecycle events land on worker
	// ring 0 here, and the run wires the same recorder into
	// Flow.Tracer so tile events interleave on the one timeline. Set
	// once at admission (or recovery requeue) and never reassigned, so
	// reads need no lock. Nil only for terminal jobs rebuilt from disk
	// history, which serve their persisted trace.json artifact instead.
	rec *trace.Recorder

	// Live progress, updated from the Flow.Progress hook.
	pass, passes, doneTiles, totalTiles atomic.Int64
	// version bumps on every observable change; SSE streams poll it.
	version atomic.Int64
}

// bump marks the job changed for SSE watchers.
func (j *Job) bump() { j.version.Add(1) }

// emit records one job-lifecycle event on the job's flight recorder
// (nil-safe: history jobs without a recorder drop it).
func (j *Job) emit(k trace.Kind, detail string) {
	j.rec.Worker(0).Emit(k, 0, geom.Rect{}, 0, 0, 0, detail)
}

// jobChromeOptions maps a job onto Chrome trace process identity: the
// numeric job sequence becomes the pid so multi-job traces merge
// side by side, and ring 0 — job lifecycle plus the tile scheduler —
// renders as the "job" track.
func jobChromeOptions(id string) trace.ChromeOptions {
	pid, _ := strconv.Atoi(strings.TrimPrefix(id, "j"))
	return trace.ChromeOptions{PID: pid, ProcessName: "opcd job " + id, Thread0Name: "job"}
}

// progressEvent snapshots the live tile progress.
func (j *Job) progressEvent() core.ProgressEvent {
	return core.ProgressEvent{
		Pass:       int(j.pass.Load()),
		Passes:     int(j.passes.Load()),
		DoneTiles:  int(j.doneTiles.Load()),
		TotalTiles: int(j.totalTiles.Load()),
	}
}
