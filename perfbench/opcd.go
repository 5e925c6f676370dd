package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"goopc/internal/core"
	"goopc/internal/geom"
	"goopc/internal/layout"
	"goopc/internal/layout/gen"
	"goopc/internal/mask"
	"goopc/internal/obs"
	"goopc/internal/optics"
	"goopc/internal/server"
)

// opcd_mix drives an in-process opcd (server.New + Start behind a
// loopback listener) with a closed loop of opcdClients clients, each
// running Submit/SubmitGDS, Watch, Fetch(result.gds) back to back. The
// seeded job sequence mixes repeat jobs (built-in workloads, served
// from the shared pattern library the set-up filled) with fresh uploads
// of small seeded routed blocks, which always miss and append.
const (
	opcdClients = 2
	opcdWorkers = 2
	opcdSetups  = 2
	// Every uploadEvery-th job of the sequence is a fresh upload, so the
	// median round trip lands on the warm repeat jobs and the tail on
	// the cold uploads.
	uploadEvery = 8
	// Fresh uploads: a routed Metal1 block of uploadDim square with
	// uploadNets nets, drawn until it covers exactly uploadTiles tiles
	// with a perimeter within uploadPerimTol of uploadPerimNM (the
	// median of such blocks), so every upload is about the same work.
	uploadDim      = 6000
	uploadNets     = 4
	uploadTiles    = 4
	uploadPerimNM  = 23700
	uploadPerimTol = 0.05
	uploadLevel    = "L3"
	// maxJobs bounds one phase's sequence (far above what a 2-CPU host
	// completes in a minute).
	maxJobs = 1 << 14
)

// repeatWorkloads and repeatLevels span the repeat jobs. The routed
// built-in is left out: its cold L3 fill alone takes ~7 s of set-up.
var (
	repeatWorkloads = []string{"stdcell", "sram", "patterns"}
	repeatLevels    = []string{"L1", "L2", "L3"}
)

func opcdFlowSpec() server.FlowSpec {
	s := fastOptics()
	return server.FlowSpec{SourceSteps: s.SourceSteps, GuardNM: s.GuardNM, BiasSpaces: biasSpaces, PatternLib: true}
}

// builtinTarget mirrors opcd's (and opcflow's) built-in workload
// generators, including their fixed seed, so a repeat job's output can
// be reproduced in-process.
func builtinTarget(name string) ([]geom.Polygon, error) {
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
	case "patterns":
		cell, _, err := gen.ThroughPitch(ly, "TP", layout.Poly, 180, []geom.Coord{360, 520, 800}, 3000, 5)
		if err != nil {
			return nil, err
		}
		return layout.Flatten(cell, layout.Poly), nil
	}
	return nil, fmt.Errorf("unknown built-in workload %q", name)
}

func parseLevel(s string) core.Level {
	switch s {
	case "L1":
		return core.L1
	case "L2":
		return core.L2
	}
	return core.L3
}

// uploadGDS draws one fresh routed block and encodes it as GDS.
func uploadGDS(rng *rand.Rand, tile geom.Coord) ([]byte, error) {
	r, err := drawRouted(rng, uploadDim, uploadNets, uploadTiles, uploadPerimNM, uploadPerimTol, tile)
	if err != nil {
		return nil, err
	}
	r.ly.SetTop(r.cell)
	var b bytes.Buffer
	if _, err := layout.WriteGDS(&b, r.ly); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// jobDef is one entry of the seeded job sequence: a repeat spec index,
// or an upload (repeat < 0).
type jobDef struct {
	repeat int
	upload []byte
}

// opcd is the daemon under test plus everything the set-up prepared.
type opcd struct {
	dir     string
	libPath string
	flow    *core.Flow // in-process flow of the library fill
	tile    geom.Coord
	specs   []server.JobSpec
	// refDigest is each repeat spec's result.gds digest from the
	// in-process run.
	refDigest []string
	seq       []jobDef
	next      atomic.Int64
	srv       *server.Server
	http      *http.Server
	base      string
	served    chan error
	stopped   bool
}

// serverTileSize is opcd's default tile: four optical ambits of the
// default optics.
func serverTileSize() geom.Coord {
	o := optics.Default()
	return 4 * geom.Coord(2*o.LambdaNM/o.NA)
}

func setupOpcd(ctx context.Context, seed int64, dir string, seconds float64) (_ *opcd, err error) {
	d := &opcd{dir: dir, libPath: filepath.Join(dir, "shared.patlib")}
	f, err := newFlow()
	if err != nil {
		return nil, err
	}
	d.flow, d.tile = f, tileSize(f)
	if d.tile != serverTileSize() {
		return nil, fmt.Errorf("in-process tile %d differs from opcd's %d", d.tile, serverTileSize())
	}

	// The seeded job sequence, uploads included.
	rng := rand.New(rand.NewSource(seed))
	fs := opcdFlowSpec()
	for _, w := range repeatWorkloads {
		for _, l := range repeatLevels {
			d.specs = append(d.specs, server.JobSpec{Name: w + "-" + l, Workload: w, Layer: int(layout.Poly), Level: l, Flow: fs})
		}
	}
	// Repeat jobs run through every spec once per round, each round in
	// a seeded order, so any stretch of the sequence has the same mix.
	d.seq = make([]jobDef, jobsFor(seconds))
	var round []int
	for i := range d.seq {
		if i%uploadEvery == uploadEvery-1 {
			b, err := uploadGDS(rng, d.tile)
			if err != nil {
				return nil, err
			}
			d.seq[i] = jobDef{repeat: -1, upload: b}
			continue
		}
		if len(round) == 0 {
			round = rng.Perm(len(d.specs))
		}
		d.seq[i] = jobDef{repeat: round[0]}
		round = round[1:]
	}

	// Library fill: every repeat spec solved in-process into the shared
	// library, which also gives each spec's reference output.
	if err := os.Remove(d.libPath); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	f.PatternLibPath = d.libPath
	var gds bytes.Buffer
	for _, sp := range d.specs {
		target, err := builtinTarget(sp.Workload)
		if err != nil {
			return nil, err
		}
		res, _, err := f.CorrectWindowedCtx(ctx, target, parseLevel(sp.Level), d.tile, true)
		if err != nil {
			return nil, fmt.Errorf("fill %s: %w", sp.Name, err)
		}
		gds.Reset()
		if _, err := resultGDS(&gds, res.Corrected, layout.Layer(sp.Layer)); err != nil {
			return nil, err
		}
		d.refDigest = append(d.refDigest, digest(gds.Bytes()))
	}
	f.PatternLibPath = ""

	if err := d.start(); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			_ = d.stop()
		}
	}()
	// Warm-up: one repeat job calibrates the daemon's flow, one upload
	// (from its own stream, not the sequence) fills its kernel cache.
	warm, err := uploadGDS(rand.New(rand.NewSource(^seed)), d.tile)
	if err != nil {
		return nil, err
	}
	c := d.client()
	for _, def := range []jobDef{{repeat: 0}, {repeat: -1, upload: warm}} {
		if r := d.roundTrip(ctx, c, def); r.err != nil || r.state != server.StateDone {
			return nil, fmt.Errorf("warm-up job: state %s: %v", r.state, r.err)
		}
	}
	return d, nil
}

// jobsFor sizes the job sequence at one job per 20 ms per client, ten
// times the rate a 2-CPU host sustains on this mix, capped.
func jobsFor(seconds float64) int {
	n := int(seconds*50) * opcdClients
	if n > maxJobs {
		n = maxJobs
	}
	return n + uploadEvery
}

func (d *opcd) start() error {
	data := filepath.Join(d.dir, "data")
	d.srv = server.New(server.Config{
		DataDir:        data,
		Workers:        opcdWorkers,
		SerialTiles:    true,
		PatternLibPath: d.libPath,
		Log:            obs.NewLogger(io.Discard, obs.ParseLogLevel(true, false), "opcd"),
	})
	if err := d.srv.Start(); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = d.srv.Stop(context.Background())
		return err
	}
	d.base = "http://" + ln.Addr().String()
	d.http = &http.Server{Handler: d.srv.Handler()}
	d.served = make(chan error, 1)
	go func() { d.served <- d.http.Serve(ln) }()
	return nil
}

// stop shuts the listener and the daemon down and waits for both. A
// second call does nothing.
func (d *opcd) stop() error {
	if d.stopped {
		return nil
	}
	d.stopped = true
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := d.http.Shutdown(ctx)
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) && herr == nil {
		herr = err
	}
	if err := d.srv.Stop(ctx); err != nil {
		return err
	}
	return herr
}

func (d *opcd) client() *server.Client {
	c := server.NewClient(d.base)
	// A refused (429) submit is a failed job, not something to hide
	// behind retries.
	c.MaxRetries = 0
	return c
}

// jobRec is one round trip's record.
type jobRec struct {
	def             jobDef
	total           float64 // submit start to fetch complete, s
	submitS, fetchS float64
	state           server.State
	latency         *server.JobLatency
	stats           *server.RunStats
	result          []byte
	refused         bool
	err             error
}

func (d *opcd) roundTrip(ctx context.Context, c *server.Client, def jobDef) jobRec {
	r := jobRec{def: def}
	t0 := time.Now()
	var st server.JobStatus
	var err error
	if def.repeat >= 0 {
		st, err = c.Submit(ctx, d.specs[def.repeat])
	} else {
		spec := server.JobSpec{Name: "upload", Layer: int(layout.Metal1), Level: uploadLevel, Flow: opcdFlowSpec()}
		st, err = c.SubmitGDS(ctx, spec, bytes.NewReader(def.upload))
	}
	r.submitS = time.Since(t0).Seconds()
	if err != nil {
		var busy *server.BusyError
		r.refused = errors.As(err, &busy)
		r.err = fmt.Errorf("submit: %w", err)
		return r
	}
	st, err = c.Watch(ctx, st.ID, nil)
	if err != nil {
		r.err = fmt.Errorf("watch %s: %w", st.ID, err)
		return r
	}
	r.state, r.latency, r.stats = st.State, st.Latency, st.Stats
	if st.State != server.StateDone || st.Latency == nil {
		r.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		return r
	}
	t1 := time.Now()
	var buf bytes.Buffer
	if _, err := c.Fetch(ctx, st.ID, "result.gds", &buf); err != nil {
		r.err = fmt.Errorf("fetch %s: %w", st.ID, err)
		return r
	}
	t2 := time.Now()
	r.fetchS = t2.Sub(t1).Seconds()
	r.total = t2.Sub(t0).Seconds()
	r.result = buf.Bytes()
	return r
}

// loop runs the closed loop for the given time and returns every
// round trip in completion order.
func (d *opcd) loop(ctx context.Context, seconds float64) []jobRec {
	var mu sync.Mutex
	var recs []jobRec
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	// Past the deadline, clients still finish the first uploadEvery jobs
	// of the phase, so every phase has at least one upload.
	minNext := d.next.Load() + uploadEvery
	var wg sync.WaitGroup
	for i := 0; i < opcdClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := d.client()
			for time.Now().Before(deadline) || d.next.Load() < minNext {
				k := d.next.Add(1) - 1
				if int(k) >= len(d.seq) {
					return
				}
				r := d.roundTrip(ctx, c, d.seq[k])
				mu.Lock()
				recs = append(recs, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs
}

func runOpcdMix(ctx context.Context, cfg config) (*measured, error) {
	m := &measured{}
	var d *opcd
	defer func() {
		if d != nil {
			_ = d.stop()
			os.RemoveAll(d.dir)
		}
	}()
	phaseSeconds := cfg.seconds
	if cfg.trace {
		phaseSeconds *= 2
	}
	for i := 0; i < opcdSetups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
			os.RemoveAll(d.dir)
			d = nil
		}
		dir, err := os.MkdirTemp(buildDir(), "opcd-")
		if err != nil {
			return nil, err
		}
		runtime.GC()
		t0 := time.Now()
		nd, err := setupOpcd(ctx, cfg.seed, dir, phaseSeconds)
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("setup: %w", err)
		}
		m.setup = append(m.setup, time.Since(t0).Seconds())
		d = nd
	}

	runtime.GC()
	w := openWindow()
	recs := d.loop(ctx, cfg.seconds)
	m.timed = w.close()
	outputs := d.account(m, recs)
	if !cfg.trace {
		return m, nil
	}

	untracedP50 := median(m.units)
	var prof bytes.Buffer
	runtime.GC()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	tw := openWindow()
	trecs := d.loop(ctx, cfg.seconds)
	td := tw.close()
	pprof.StopCPUProfile()
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	m.ledger = ledger(samples)
	var traced measured
	tracedOut := d.account(&traced, trecs)
	m.problems = append(m.problems, traced.problems...)
	for k, v := range tracedOut {
		outputs[k] = v
	}

	var submit, fetch, queue, run, overhead []float64
	for _, r := range trecs {
		if r.err != nil || r.latency == nil {
			continue
		}
		submit = append(submit, r.submitS*1000)
		fetch = append(fetch, r.fetchS*1000)
		queue = append(queue, r.latency.QueueSeconds)
		run = append(run, r.latency.RunSeconds)
		overhead = append(overhead, (r.total-r.latency.TotalSeconds)*1000)
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	libS, libRecords, err := openLibSeconds(d.libPath)
	if err != nil {
		return nil, err
	}
	probe, err := d.probes(outputs, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	extra := map[string]metric{
		"server.submit_ms_p50":     {median(submit), unitMS},
		"server.fetch_ms_p50":      {median(fetch), unitMS},
		"server.queue_s_p50":       {median(queue), unitS},
		"server.run_s_p50":         {median(run), unitS},
		"server.overhead_ms_p50":   {median(overhead), unitMS},
		"server.round_trip_ms_p50": {1000 * median(traced.tailSamples), unitMS},
		"server.warm_ms_p50":       {1000 * median(traced.warm), unitMS},
		"core.reuse_ratio":         {jobReuseRatio(trecs), unitRatio},
		"core.worst_rms_nm":        {jobWorstRMS(trecs), "nm"},
		"obs.trace_overhead_frac":  {(median(traced.units) - untracedP50) / untracedP50, unitRatio},
		"patlib.open_s":            {libS, unitS},
		"patlib.records":           {float64(libRecords), unitCount},
		"optics.image_ms":          {probe.imageMS, unitMS},
		"mask.analyze_s":           {probe.analyzeS, unitS},
		"gds.write_s":              {probe.writeS, unitS},
		"gds.read_s":               {probe.readS, unitS},
	}
	traced.ledger = m.ledger
	m.layer = layerMetrics(td, float64(traced.completed), &traced, extra)
	m.fact("traced_jobs", traced.completed)
	return m, nil
}

// account folds a phase's round trips into m, checks every fetched
// result, and returns the distinct outputs by digest. The set-up filled
// the library with every repeat spec, so a repeat job solves no tile
// and each run of one spec reports the same number of exact library
// hits.
func (d *opcd) account(m *measured, recs []jobRec) map[string][]byte {
	outputs := map[string][]byte{}
	shots := map[string]int{}
	exactHits := map[int]int{}
	for _, r := range recs {
		m.attempted++
		m.tilePasses++
		if r.err != nil {
			m.failed++
			m.tileFailed++
			if !r.refused {
				m.fail("%v", r.err)
			}
			continue
		}
		dg := digest(r.result)
		if _, ok := outputs[dg]; !ok {
			ly, err := layout.ReadGDS(bytes.NewReader(r.result))
			if err != nil || ly.Top == nil {
				m.failed++
				m.tileFailed++
				m.fail("result.gds (%d bytes) does not parse: %v", len(r.result), err)
				continue
			}
			outputs[dg] = r.result
			shots[dg] = mask.Analyze(allPolys(ly), d.flow.Writer).Shots
		}
		bad := false
		if r.def.repeat >= 0 && dg != d.refDigest[r.def.repeat] {
			m.fail("repeat job %s: result.gds %s differs from the in-process run %s",
				d.specs[r.def.repeat].Name, dg, d.refDigest[r.def.repeat])
			bad = true
		}
		if r.stats != nil && r.stats.FailedTiles > 0 {
			m.fail("job %s: %d failed tile-passes", d.jobName(r.def), r.stats.FailedTiles)
			bad = true
		}
		if r.def.repeat >= 0 && r.stats != nil {
			name := d.jobName(r.def)
			if r.stats.CorrectedTiles > 0 {
				m.fail("repeat job %s solved %d tiles the library should have served", name, r.stats.CorrectedTiles)
				bad = true
			}
			if first, ok := exactHits[r.def.repeat]; !ok {
				exactHits[r.def.repeat] = r.stats.LibExactTiles
			} else if r.stats.LibExactTiles != first {
				m.fail("repeat job %s: %d exact library hits, its first run had %d", name, r.stats.LibExactTiles, first)
				bad = true
			}
		}
		if bad {
			m.failed++
			m.tileFailed++
		}
		m.completed++
		m.tailSamples = append(m.tailSamples, r.total)
		if r.def.repeat < 0 {
			m.units = append(m.units, r.latency.TotalSeconds)
		} else {
			m.warm = append(m.warm, r.latency.TotalSeconds)
		}
		m.shots = append(m.shots, float64(shots[dg]))
		m.gdsBytes = append(m.gdsBytes, float64(len(r.result)))
	}
	m.fact("jobs", len(recs))
	m.fact("by_job", d.summarize(recs))
	return outputs
}

// jobSummary is one job kind's line in the result file.
type jobSummary struct {
	Jobs          int     `json:"jobs"`
	RoundTripP50S float64 `json:"round_trip_p50_s"`
	RunP50S       float64 `json:"run_p50_s"`
	TileSolves    int     `json:"tile_solves"`
}

// summarize groups the successful round trips by job kind (repeat spec
// or upload).
func (d *opcd) summarize(recs []jobRec) map[string]jobSummary {
	trips, runs := map[string][]float64{}, map[string][]float64{}
	solves := map[string]int{}
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		k := d.jobName(r.def)
		trips[k] = append(trips[k], r.total)
		runs[k] = append(runs[k], r.latency.RunSeconds)
		if r.stats != nil {
			solves[k] += r.stats.CorrectedTiles
		}
	}
	out := map[string]jobSummary{}
	for k, v := range trips {
		out[k] = jobSummary{Jobs: len(v), RoundTripP50S: median(v), RunP50S: median(runs[k]), TileSolves: solves[k]}
	}
	return out
}

func (d *opcd) jobName(def jobDef) string {
	if def.repeat >= 0 {
		return d.specs[def.repeat].Name
	}
	return "upload"
}

// allPolys flattens every layer of a layout's top cell.
func allPolys(ly *layout.Layout) []geom.Polygon {
	var polys []geom.Polygon
	for _, l := range ly.Top.Layers() {
		polys = append(polys, layout.Flatten(ly.Top, l)...)
	}
	return polys
}

// opcdProbes are the benchmark-timed single-layer calls of opcd_mix.
type opcdProbes struct {
	imageMS, analyzeS, writeS, readS float64
}

// probes times mask.Analyze and layout.WriteGDS on the fetched outputs
// (parsed already by account), layout.ReadGDS on the first uploads, and
// Simulator.Aerial on tile windows of the first upload, each as a
// median.
func (d *opcd) probes(outputs map[string][]byte, seed int64) (opcdProbes, error) {
	var p opcdProbes
	var analyze, write, read []float64
	for _, b := range outputs {
		ly, err := layout.ReadGDS(bytes.NewReader(b))
		if err != nil {
			return p, err
		}
		polys := allPolys(ly)
		t0 := time.Now()
		mask.Analyze(polys, d.flow.Writer)
		analyze = append(analyze, time.Since(t0).Seconds())
		t0 = time.Now()
		if _, err := layout.WriteGDS(io.Discard, ly); err != nil {
			return p, err
		}
		write = append(write, time.Since(t0).Seconds())
	}
	var first []geom.Polygon
	for _, def := range d.seq {
		if def.repeat >= 0 {
			continue
		}
		t0 := time.Now()
		ly, err := layout.ReadGDS(bytes.NewReader(def.upload))
		if err != nil {
			return p, err
		}
		read = append(read, time.Since(t0).Seconds())
		if first == nil {
			first = layout.Flatten(ly.Top, layout.Metal1)
		}
		if len(read) >= imageSamples {
			break
		}
	}
	var err error
	if p.imageMS, err = aerialSampleMS(d.flow, first, d.tile, seed); err != nil {
		return p, err
	}
	p.analyzeS, p.writeS, p.readS = median(analyze), median(write), median(read)
	return p, nil
}

// jobReuseRatio is the share of the jobs' tile-passes served without a
// solve: dedup reuse, clean skips and library hits.
func jobReuseRatio(recs []jobRec) float64 {
	var served, all int
	for _, r := range recs {
		if st := r.stats; st != nil {
			served += st.ReusedTiles + st.CleanTiles + st.LibExactTiles + st.LibSimilarTiles
			all += st.CorrectedTiles + st.ReusedTiles + st.CleanTiles + st.ResumedTiles +
				st.RemoteTiles + st.LibExactTiles + st.LibSimilarTiles
		}
	}
	if all == 0 {
		return 0
	}
	return float64(served) / float64(all)
}

// jobWorstRMS is the worst per-tile EPE RMS over the jobs.
func jobWorstRMS(recs []jobRec) float64 {
	var w float64
	for _, r := range recs {
		if r.stats != nil && r.stats.WorstRMS > w {
			w = r.stats.WorstRMS
		}
	}
	return w
}
