package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"goopc/internal/cluster"
	"goopc/internal/core"
	"goopc/internal/faults"
	"goopc/internal/geom"
	"goopc/internal/layout"
	"goopc/internal/obs"
	"goopc/internal/obs/trace"
	"goopc/internal/optics"
	"goopc/internal/patlib"
)

// Config sizes and wires a Server.
type Config struct {
	// DataDir is the server state root: every job keeps its spec,
	// lifecycle record, core checkpoint and result artifacts under
	// DataDir/jobs/<id>/, which is what makes restarts crash-safe.
	DataDir string
	// Workers bounds the correction worker pool (default 2).
	Workers int
	// QueueDepth caps the number of waiting jobs; submissions beyond it
	// are rejected with 429 and a Retry-After hint (default 16).
	QueueDepth int
	// MaxTilesPerJob rejects jobs whose estimated tile count exceeds the
	// budget (admission control against one job starving the pool);
	// 0 means unlimited.
	MaxTilesPerJob int
	// RetryAfterHint overrides the computed Retry-After estimate on 429
	// responses (0 derives it from observed job durations).
	RetryAfterHint time.Duration
	// TenantQuota caps how many jobs one tenant (JobSpec.Tenant) may
	// have queued at once; excess submissions get 429 even when the
	// global queue has room. 0 means no per-tenant cap.
	TenantQuota int
	// TenantWeights sets relative fair-share dequeue weights per tenant
	// (missing tenants weigh 1). With no weights every active tenant
	// dequeues in equal turns.
	TenantWeights map[string]int
	// Cluster, when set, makes this daemon the coordinator of a
	// distributed correction cluster (DESIGN.md 5i): the /cluster/*
	// protocol endpoints mount on the handler, the coordinator starts
	// and stops with the server, and every job offers its unsolved
	// canonical tile classes to the cluster before solving them locally.
	// Nil runs everything in-process, as before.
	Cluster *cluster.Coordinator
	// SerialTiles turns off intra-job tile parallelism (each job then
	// uses one CPU; the pool provides the concurrency).
	SerialTiles bool
	// CheckpointEvery is the per-job checkpoint flush interval
	// (default 2s — a daemon kill loses at most that much tile work).
	CheckpointEvery time.Duration
	// FaultPlan arms the server's own chaos probe sites ("http" on
	// every API request) — the per-job "tile"/"rules" sites come from
	// each job's Inject spec instead.
	FaultPlan *faults.Plan
	// PatternLibPath, when set, opens one shared cross-run pattern
	// library (internal/patlib) at Start and offers it to every job that
	// opts in via FlowSpec.PatternLib — concurrent jobs look solutions
	// up and append new ones through the same in-memory index and
	// single-writer store. PatternLibReadOnly serves hits without
	// persisting new solutions.
	PatternLibPath     string
	PatternLibReadOnly bool
	// Log defaults to a quiet stderr logger; Registry to obs.Default().
	Log      *obs.Logger
	Registry *obs.Registry
}

// Server is the opcd job server: admission-controlled queue, bounded
// worker pool, per-job artifacts, live progress, crash recovery.
type Server struct {
	cfg  Config
	log  *obs.Logger
	met  *serverMetrics
	insp *obs.Inspector

	flows flowCache

	// patlib is the shared cross-run pattern library (nil when not
	// configured or when opening it failed — jobs then just solve).
	patlib *patlib.Library

	// ctx cancels every running job when the server stops; workers and
	// SSE streams watch it.
	ctx  context.Context
	stop context.CancelFunc

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*Job
	queue    jobQueue
	gauges   map[string]*jobGauges
	seq      int64
	ewmaSec  float64
	stopping bool
	started  bool
	// idem dedupes submit replays: Idempotency-Key → job ID ("" while
	// the keyed admission is still in flight). idemOrder is the FIFO
	// eviction order bounding the cache. In-memory only — the window it
	// guards (a client retrying a lost response) is seconds, not
	// restarts.
	idem      map[string]string
	idemOrder []string

	wg sync.WaitGroup
}

// New builds a Server; Start launches it.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 2 * time.Second
	}
	if cfg.Log == nil {
		cfg.Log = obs.NewLogger(os.Stderr, obs.ParseLogLevel(false, false), "opcd")
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default()
	}
	s := &Server{
		cfg:     cfg,
		log:     cfg.Log,
		met:     newServerMetrics(cfg.Registry),
		jobs:    map[string]*Job{},
		gauges:  map[string]*jobGauges{},
		idem:    map[string]string{},
		ewmaSec: 30, // pessimistic seed until real jobs calibrate it
	}
	s.queue.weights = cfg.TenantWeights
	s.cond = sync.NewCond(&s.mu)
	s.ctx, s.stop = context.WithCancel(context.Background())
	s.insp = &obs.Inspector{Registry: cfg.Registry, Status: s.inspectorStatus}
	return s
}

// Start recovers persisted jobs from the data dir and launches the
// worker pool. It must be called once before serving requests.
func (s *Server) Start() error {
	if err := os.MkdirAll(s.jobsDir(), 0o755); err != nil {
		return fmt.Errorf("server: data dir: %w", err)
	}
	if err := s.recover(); err != nil {
		return err
	}
	if s.cfg.PatternLibPath != "" {
		lib, err := patlib.Open(s.cfg.PatternLibPath, s.cfg.PatternLibReadOnly)
		if err != nil {
			// The library is a cache: a daemon that cannot open it keeps
			// serving, every opted-in job just solves from scratch.
			s.log.Errorf("pattern library %s unavailable: %v", s.cfg.PatternLibPath, err)
		} else {
			s.patlib = lib
			s.log.Infof("pattern library %s: %d entries (readonly=%t)",
				s.cfg.PatternLibPath, lib.Len(), lib.ReadOnly())
		}
	}
	if s.cfg.Cluster != nil {
		s.cfg.Cluster.Start()
	}
	s.mu.Lock()
	s.started = true
	s.mu.Unlock()
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return nil
}

// Stop shuts the pool down: running jobs are cancelled (their
// checkpoints flush, and their on-disk state stays "running" so a
// restart resumes them), queued jobs stay queued on disk. Stop returns
// when every worker has exited or ctx expires.
func (s *Server) Stop(ctx context.Context) error {
	s.mu.Lock()
	s.stopping = true
	s.mu.Unlock()
	s.stop()
	s.cond.Broadcast()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		if s.patlib != nil {
			// Workers have drained: flush the pattern library's append
			// queue and release its lock.
			s.patlib.Close()
		}
		if s.cfg.Cluster != nil {
			s.cfg.Cluster.Stop()
		}
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: stop: %w", ctx.Err())
	}
}

func (s *Server) jobsDir() string { return filepath.Join(s.cfg.DataDir, "jobs") }

// Handler returns the full opcd route table: the job API plus the obs
// inspector (/metrics, /status, /debug/pprof) merged onto the same mux,
// all behind the "http" chaos probe.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleDelete)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/result.gds", s.handleArtifact("result.gds", "application/octet-stream"))
	mux.HandleFunc("GET /jobs/{id}/report.json", s.handleArtifact("report.json", "application/json"))
	mux.HandleFunc("GET /jobs/{id}/orc.json", s.handleArtifact("orc.json", "application/json"))
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.cfg.Cluster != nil {
		s.cfg.Cluster.Register(mux)
	}
	s.insp.Register(mux)
	return s.probeMiddleware(mux)
}

// probeMiddleware evaluates the "http" fault site before routing, so a
// chaos plan can fail or stall any request deterministically.
func (s *Server) probeMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := s.cfg.FaultPlan.Probe(r.Context(), "http"); err != nil {
			writeError(w, http.StatusServiceUnavailable, fmt.Sprintf("chaos: %v", err))
			return
		}
		next.ServeHTTP(w, r)
	})
}

// inspectorStatus contributes the job-server summary to /status: the
// job totals, the per-tenant queued/running fairness view, and (when
// this daemon coordinates a cluster) the cluster report.
func (s *Server) inspectorStatus() map[string]any {
	s.mu.Lock()
	running := 0
	runningBy := map[string]int{}
	for _, j := range s.jobs {
		if j.state == StateRunning {
			running++
			runningBy[j.Spec.Tenant]++
		}
	}
	queuedBy := s.queue.tenantCounts()
	total, queued := len(s.jobs), s.queue.Len()
	s.mu.Unlock()

	tenants := map[string]any{}
	for name, n := range queuedBy {
		tenants[tenantLabel(name)] = map[string]int{"queued": n, "running": runningBy[name]}
		delete(runningBy, name)
	}
	for name, n := range runningBy {
		tenants[tenantLabel(name)] = map[string]int{"queued": 0, "running": n}
	}
	out := map[string]any{
		"jobs": map[string]any{
			"total":   total,
			"queued":  queued,
			"running": running,
		},
	}
	if len(tenants) > 0 {
		out["tenants"] = tenants
	}
	if s.cfg.Cluster != nil {
		// Status takes the coordinator's own lock; never call it under
		// s.mu.
		out["cluster"] = s.cfg.Cluster.Status()
	}
	return out
}

// apiError is the JSON error body every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
	// RetryAfterSeconds mirrors the Retry-After header on 429s.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(apiError{Error: msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// handleSubmit admits one job. Two request shapes:
//
//   - Content-Type: application/json — the body is the JobSpec and the
//     job corrects a named example workload.
//   - any other Content-Type — the body is a GDSII stream (decoded
//     incrementally by the hardened reader, never buffered whole) and
//     the JobSpec rides in the "spec" query parameter.
//
// Admission control runs before any expensive work: a full queue
// answers 429 with a Retry-After estimate, and a job whose estimated
// tile count exceeds the per-job budget answers 422.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	upload := false
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "application/json") {
		if err := DecodeSpec(io.LimitReader(r.Body, 1<<20), &spec); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("spec: %v", err))
			return
		}
	} else {
		upload = true
		raw := r.URL.Query().Get("spec")
		if raw == "" {
			writeError(w, http.StatusBadRequest, "GDS upload needs a ?spec=<json> query parameter")
			return
		}
		if err := DecodeSpec(strings.NewReader(raw), &spec); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("spec: %v", err))
			return
		}
	}
	if err := spec.validate(upload); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	idemKey := r.Header.Get("Idempotency-Key")

	// Queue-depth gate first: reject cheap, before touching the body.
	s.mu.Lock()
	if !s.started || s.stopping {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is not accepting jobs")
		return
	}
	// Replayed submit (the client retried a request whose response was
	// lost): answer with the committed job instead of duplicating it.
	if prev, inflight := s.resolveIdemLocked(idemKey); prev != nil {
		st := s.statusLocked(prev)
		s.mu.Unlock()
		s.log.Infof("job %s: submit replay deduped (idempotency key)", prev.ID)
		writeJSON(w, http.StatusOK, st)
		return
	} else if inflight {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "a submission with this idempotency key is in flight")
		return
	}
	if s.queue.Len() >= s.cfg.QueueDepth {
		s.releaseIdemLocked(idemKey)
		s.reject429Locked(w, fmt.Sprintf("queue full (%d jobs waiting)", s.cfg.QueueDepth))
		return
	}
	// Per-tenant quota: one tenant cannot occupy the whole queue even
	// when global depth has room.
	if s.cfg.TenantQuota > 0 && s.queue.tenantLen(spec.Tenant) >= s.cfg.TenantQuota {
		s.releaseIdemLocked(idemKey)
		s.reject429Locked(w, fmt.Sprintf("tenant %q quota reached (%d jobs queued)",
			tenantLabel(spec.Tenant), s.cfg.TenantQuota))
		return
	}
	s.seq++
	id := fmt.Sprintf("j%06d", s.seq)
	j := &Job{
		ID: id, Spec: spec, seq: s.seq, upload: upload,
		dir: filepath.Join(s.jobsDir(), id), state: StateQueued, submitted: time.Now(),
		rec: trace.New(0),
	}
	s.mu.Unlock()

	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		s.releaseIdem(idemKey)
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	// Resolve the target once at admission: an upload streams through
	// the hardened GDS reader onto disk while decoding; a workload
	// generates. Either way the tile budget is checked before the job
	// can occupy a worker.
	target, err := s.admitTarget(j, r.Body)
	if err != nil {
		os.RemoveAll(j.dir)
		s.releaseIdem(idemKey)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if s.cfg.MaxTilesPerJob > 0 {
		tiles := core.EstimateTiles(target, s.tileSize(spec))
		if tiles > s.cfg.MaxTilesPerJob {
			os.RemoveAll(j.dir)
			s.releaseIdem(idemKey)
			s.met.rejected.Inc()
			writeError(w, http.StatusUnprocessableEntity,
				fmt.Sprintf("job needs ~%d tiles, per-job budget is %d", tiles, s.cfg.MaxTilesPerJob))
			return
		}
	}

	s.mu.Lock()
	if s.stopping {
		s.releaseIdemLocked(idemKey)
		s.mu.Unlock()
		os.RemoveAll(j.dir)
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	s.commitIdemLocked(idemKey, id)
	j.emit(trace.JobAdmitted, jobSource(spec, upload))
	s.jobs[id] = j
	s.queue.push(j)
	j.emit(trace.JobEnqueued, "")
	s.met.submitted.Inc()
	s.met.queued.Set(float64(s.queue.Len()))
	s.persistLocked(j)
	st := s.statusLocked(j)
	s.mu.Unlock()
	s.cond.Signal()
	s.log.Infof("job %s queued (%s %s)", id, spec.Level, jobSource(spec, upload))
	writeJSON(w, http.StatusAccepted, st)
}

// reject429Locked answers a submission with 429 + Retry-After and
// releases the server lock.
func (s *Server) reject429Locked(w http.ResponseWriter, msg string) {
	retry := s.retryAfterLocked()
	s.met.rejected.Inc()
	s.mu.Unlock()
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusTooManyRequests)
	_ = json.NewEncoder(w).Encode(apiError{Error: msg, RetryAfterSeconds: retry})
}

// idemCacheCap bounds the submit dedupe cache; the oldest keys evict
// first once it fills.
const idemCacheCap = 4096

// resolveIdemLocked resolves an Idempotency-Key at admission. A
// non-nil job means the key already committed — the caller answers
// with that job's status instead of creating a duplicate. inflight
// means another submission carrying the same key is mid-admission; the
// caller answers 503 and the client's retry loop absorbs it.
// Otherwise the key is reserved: the caller must commitIdemLocked on
// success or releaseIdem(Locked) on any rejection so a later retry is
// admitted afresh.
func (s *Server) resolveIdemLocked(key string) (prev *Job, inflight bool) {
	if key == "" {
		return nil, false
	}
	if id, ok := s.idem[key]; ok {
		if id == "" {
			return nil, true
		}
		if j := s.jobs[id]; j != nil {
			return j, false
		}
		// The committed job has since been purged: admit afresh under
		// the same key (it is already in the eviction order).
	} else {
		if len(s.idemOrder) >= idemCacheCap {
			delete(s.idem, s.idemOrder[0])
			s.idemOrder = s.idemOrder[1:]
		}
		s.idemOrder = append(s.idemOrder, key)
	}
	s.idem[key] = ""
	return nil, false
}

func (s *Server) commitIdemLocked(key, id string) {
	if key != "" {
		s.idem[key] = id
	}
}

func (s *Server) releaseIdemLocked(key string) {
	if key == "" {
		return
	}
	if id, ok := s.idem[key]; ok && id == "" {
		delete(s.idem, key)
	}
}

func (s *Server) releaseIdem(key string) {
	s.mu.Lock()
	s.releaseIdemLocked(key)
	s.mu.Unlock()
}

// tenantLabel names a tenant for humans ("" is the shared default).
func tenantLabel(name string) string {
	if name == "" {
		return "default"
	}
	return name
}

func jobSource(spec JobSpec, upload bool) string {
	if upload {
		return "gds upload"
	}
	return "workload " + spec.Workload
}

// admitTarget materializes the job's target geometry at admission time.
// Uploads tee the request body into input.gds while the hardened
// reader decodes it, so the artifact on disk is exactly the accepted
// stream; workloads generate deterministically (seeded) so a recovered
// job re-derives the identical target.
func (s *Server) admitTarget(j *Job, body io.Reader) ([]geom.Polygon, error) {
	if !j.upload {
		return workloadTarget(j.Spec.Workload)
	}
	f, err := os.Create(filepath.Join(j.dir, "input.gds"))
	if err != nil {
		return nil, err
	}
	ly, rerr := layout.ReadGDS(io.TeeReader(body, f))
	cerr := f.Close()
	if rerr != nil {
		return nil, fmt.Errorf("gds upload: %w", rerr)
	}
	if cerr != nil {
		return nil, cerr
	}
	target := layout.Flatten(ly.Top, jobLayer(j.Spec))
	if len(target) == 0 {
		return nil, fmt.Errorf("gds upload has no geometry on layer %d", jobLayer(j.Spec))
	}
	return target, nil
}

// jobLayer returns the drawn layer a job corrects (default poly).
func jobLayer(spec JobSpec) layout.Layer {
	if spec.Layer != 0 {
		return layout.Layer(spec.Layer)
	}
	return layout.Poly
}

// tileSize resolves the scheduler tile size: the spec's TileNM or four
// times the optical ambit (the same default opcflow uses). The ambit
// only depends on the fixed exposure setup, so this is computable
// before calibration.
func (s *Server) tileSize(spec JobSpec) geom.Coord {
	if spec.TileNM > 0 {
		return spec.TileNM
	}
	o := optics.Default()
	return 4 * geom.Coord(2*o.LambdaNM/o.NA)
}

// retryAfterLocked estimates how long a rejected submitter should wait:
// the observed mean job duration times the queue backlog, spread over
// the pool.
func (s *Server) retryAfterLocked() int {
	if s.cfg.RetryAfterHint > 0 {
		return int(s.cfg.RetryAfterHint.Round(time.Second) / time.Second)
	}
	secs := s.ewmaSec * float64(s.queue.Len()+1) / float64(s.cfg.Workers)
	if secs < 1 {
		secs = 1
	}
	if secs > 600 {
		secs = 600
	}
	return int(secs + 0.5)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	out := make([]JobStatus, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, s.statusLocked(j))
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) lookup(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	s.mu.Lock()
	st := s.statusLocked(j)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// handleDelete cancels a live job (queued jobs cancel immediately,
// running jobs get their context cancelled and transition when the
// scheduler drains) and purges a terminal one — artifacts, persisted
// state and per-job metric series all go.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.lookup(id)
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	s.mu.Lock()
	switch {
	case j.state == StateQueued:
		s.queue.remove(j)
		s.met.queued.Set(float64(s.queue.Len()))
		j.state = StateCancelled
		j.finished = time.Now()
		s.met.finishedCounter(StateCancelled).Inc()
		s.persistLocked(j)
		j.bump()
	case j.state == StateRunning:
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
	default: // terminal: purge
		delete(s.jobs, id)
		s.gauges[id].retire(s.met)
		delete(s.gauges, id)
		dir := j.dir
		st := s.statusLocked(j)
		s.mu.Unlock()
		if err := os.RemoveAll(dir); err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		s.log.Infof("job %s purged", id)
		writeJSON(w, http.StatusOK, st)
		return
	}
	st := s.statusLocked(j)
	s.mu.Unlock()
	s.log.Infof("job %s cancel requested (state %s)", id, st.State)
	writeJSON(w, http.StatusAccepted, st)
}

// handleEvents streams a job's status over SSE: one "status" event on
// connect, another on every observable change (progress, state), and a
// comment heartbeat while idle. The stream ends once a terminal state
// has been sent.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	send := func() (State, bool) {
		s.mu.Lock()
		st := s.statusLocked(j)
		s.mu.Unlock()
		data, err := json.Marshal(st)
		if err != nil {
			return st.State, false
		}
		if _, err := fmt.Fprintf(w, "event: status\ndata: %s\n\n", data); err != nil {
			return st.State, false
		}
		fl.Flush()
		return st.State, true
	}

	last := j.version.Load()
	state, ok := send()
	if !ok || state.Terminal() {
		return
	}
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.ctx.Done():
			// Server stopping: send a final snapshot and end the stream.
			send()
			return
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		case <-tick.C:
			v := j.version.Load()
			if v == last {
				continue
			}
			last = v
			state, ok = send()
			if !ok || state.Terminal() {
				return
			}
		}
	}
}

// handleArtifact serves one per-job artifact file for finished jobs.
func (s *Server) handleArtifact(name, contentType string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j := s.lookup(r.PathValue("id"))
		if j == nil {
			writeError(w, http.StatusNotFound, "no such job")
			return
		}
		s.mu.Lock()
		state := j.state
		dir := j.dir
		s.mu.Unlock()
		if state != StateDone {
			writeError(w, http.StatusConflict, fmt.Sprintf("job is %s; artifacts exist once it is done", state))
			return
		}
		path := filepath.Join(dir, name)
		f, err := os.Open(path)
		if err != nil {
			writeError(w, http.StatusNotFound, fmt.Sprintf("artifact %s not available", name))
			return
		}
		defer f.Close()
		w.Header().Set("Content-Type", contentType)
		if fi, err := f.Stat(); err == nil {
			w.Header().Set("Content-Length", strconv.FormatInt(fi.Size(), 10))
		}
		_, _ = io.Copy(w, f)
	}
}

// handleTrace serves the job's flight-recorder timeline as Chrome
// trace-event JSON (load it in Perfetto / chrome://tracing). Unlike the
// other artifacts it is available in any state: live jobs export a
// point-in-time snapshot of the recorder, and terminal jobs that
// predate this daemon process fall back to the trace.json artifact the
// finishing worker persisted.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if j.rec != nil {
		w.Header().Set("Content-Type", "application/json")
		_ = j.rec.WriteChrome(w, jobChromeOptions(j.ID))
		return
	}
	s.mu.Lock()
	dir := j.dir
	s.mu.Unlock()
	f, err := os.Open(filepath.Join(dir, "trace.json"))
	if err != nil {
		writeError(w, http.StatusNotFound, "trace not available for this job")
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/json")
	_, _ = io.Copy(w, f)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ok := s.started && !s.stopping
	queued := s.queue.Len()
	s.mu.Unlock()
	code := http.StatusOK
	if !ok {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{"ok": ok, "queued": queued})
}

// statusLocked snapshots a job (caller holds s.mu).
func (s *Server) statusLocked(j *Job) JobStatus {
	st := JobStatus{
		ID: j.ID, State: j.state, Spec: j.Spec, Upload: j.upload,
		Submitted: j.submitted, Started: j.started, Finished: j.finished,
		Progress: j.progressEvent(), Stats: j.stats,
		Recovered: j.recovered, Error: j.errMsg, ResultBytes: j.resultLen,
	}
	st.Latency = j.latency(time.Now())
	if j.state == StateQueued {
		st.QueuePos = s.queue.position(j)
	}
	return st
}

// jobRecord is the persisted lifecycle state (DataDir/jobs/<id>/job.json).
type jobRecord struct {
	ID          string    `json:"id"`
	Spec        JobSpec   `json:"spec"`
	Upload      bool      `json:"upload"`
	State       State     `json:"state"`
	Recovered   bool      `json:"recovered,omitempty"`
	Error       string    `json:"error,omitempty"`
	Submitted   time.Time `json:"submitted"`
	Started     time.Time `json:"started"`
	Finished    time.Time `json:"finished"`
	Stats       *RunStats `json:"stats,omitempty"`
	ResultBytes int64     `json:"result_bytes,omitempty"`
}

// persistLocked writes the job's lifecycle record atomically (caller
// holds s.mu). Persistence failures are logged, not fatal: the server
// keeps serving from memory and recovery degrades gracefully.
func (s *Server) persistLocked(j *Job) {
	rec := jobRecord{
		ID: j.ID, Spec: j.Spec, Upload: j.upload, State: j.state,
		Recovered: j.recovered, Error: j.errMsg,
		Submitted: j.submitted, Started: j.started, Finished: j.finished,
		Stats: j.stats, ResultBytes: j.resultLen,
	}
	if err := writeJSONAtomic(filepath.Join(j.dir, "job.json"), rec); err != nil {
		s.log.Errorf("persist %s: %v", j.ID, err)
	}
}

// writeJSONAtomic writes v as JSON via temp-file + rename, the same
// crash discipline the core checkpoint writer uses.
func writeJSONAtomic(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".job-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	_, werr := tmp.Write(append(data, '\n'))
	if serr := tmp.Sync(); werr == nil {
		werr = serr
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(name, path)
	}
	if werr != nil {
		os.Remove(name)
	}
	return werr
}

// recover rebuilds the job table from the data dir at startup. Jobs
// persisted as queued or running go back on the queue (marked
// recovered; their core checkpoint, if any, resumes finished tiles),
// terminal jobs come back as browsable history.
func (s *Server) recover() error {
	entries, err := os.ReadDir(s.jobsDir())
	if err != nil {
		return fmt.Errorf("server: recover: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(s.jobsDir(), e.Name())
		data, err := os.ReadFile(filepath.Join(dir, "job.json"))
		if err != nil {
			s.log.Errorf("recover %s: %v (skipped)", e.Name(), err)
			continue
		}
		var rec jobRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			s.log.Errorf("recover %s: %v (skipped)", e.Name(), err)
			continue
		}
		var seq int64
		if n, err := strconv.ParseInt(strings.TrimPrefix(rec.ID, "j"), 10, 64); err == nil {
			seq = n
			if n > s.seq {
				s.seq = n
			}
		}
		j := &Job{
			ID: rec.ID, Spec: rec.Spec, upload: rec.Upload, dir: dir,
			seq: seq, state: rec.State, recovered: rec.Recovered,
			errMsg: rec.Error, submitted: rec.Submitted, started: rec.Started,
			finished: rec.Finished, stats: rec.Stats, resultLen: rec.ResultBytes,
		}
		if !rec.State.Terminal() {
			// Interrupted mid-flight: requeue from the top. The core
			// checkpoint under the job dir restores completed tile
			// classes, so only unfinished work re-runs. The job gets a
			// fresh flight recorder — the pre-crash timeline is gone, and
			// the resumed run will show the surviving tiles as resumed
			// events instead.
			j.state = StateQueued
			j.recovered = true
			j.started = time.Time{}
			j.rec = trace.New(0)
			j.emit(trace.JobAdmitted, "recovered (was "+string(rec.State)+")")
			s.queue.push(j)
			j.emit(trace.JobEnqueued, "")
			s.met.recovered.Inc()
			s.persistLocked(j)
			s.log.Infof("job %s recovered (was %s)", j.ID, rec.State)
		}
		s.jobs[j.ID] = j
	}
	s.met.queued.Set(float64(s.queue.Len()))
	return nil
}
