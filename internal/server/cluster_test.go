package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"goopc/internal/cluster"
	"goopc/internal/core"
	"goopc/internal/faults"
	"goopc/internal/geom"
	"goopc/internal/layout"
	"goopc/internal/obs"
)

// TestMain doubles as the cluster-smoke worker process: when
// GOOPC_WORKER_JOIN is set, the re-exec'd test binary becomes a real
// opcd-style worker the test can kill -9 mid-shard.
func TestMain(m *testing.M) {
	if join := os.Getenv("GOOPC_WORKER_JOIN"); join != "" {
		workerProcess(join)
		return
	}
	os.Exit(m.Run())
}

func workerProcess(join string) {
	var plan *faults.Plan
	if s := os.Getenv("GOOPC_WORKER_INJECT"); s != "" {
		p, err := faults.Parse(s)
		if err != nil {
			fmt.Fprintln(os.Stderr, "worker inject:", err)
			os.Exit(2)
		}
		plan = p
	}
	log := obs.NewLogger(os.Stderr, obs.ParseLogLevel(true, false), "smoke-worker")
	_ = cluster.RunWorker(context.Background(), cluster.WorkerConfig{
		Coordinator: join,
		Name:        os.Getenv("GOOPC_WORKER_NAME"),
		Solve:       NewWorkerSolver(log, plan),
		FaultPlan:   plan,
		Log:         log,
	})
}

// testCoordinator wires a fast-lease coordinator into a test server
// config.
func testCoordinator(c *Config) *cluster.Coordinator {
	co := cluster.New(cluster.Config{
		LeaseTTL:     500 * time.Millisecond,
		PollDelay:    10 * time.Millisecond,
		ShardClasses: 1,
		Registry:     c.Registry,
		Log:          c.Log,
	})
	c.Cluster = co
	return co
}

// runInprocWorker runs a cluster worker goroutine for the test's
// lifetime.
func runInprocWorker(t *testing.T, url, name string) {
	t.Helper()
	wlog := obs.NewLogger(io.Discard, 0, name)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = cluster.RunWorker(ctx, cluster.WorkerConfig{
			Coordinator: url, Name: name, Solve: NewWorkerSolver(wlog, nil), Log: wlog,
		})
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
}

func waitClusterWorkers(t *testing.T, co *cluster.Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if len(co.Status().Workers) == n {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("never saw %d cluster workers: %+v", n, co.Status())
}

// directRun is the oracle: the same correction straight through the
// core engine, returning the result.gds bytes and the wall time.
func directRun(t *testing.T, target []geom.Polygon, level core.Level, tile geom.Coord, parallel bool) ([]byte, time.Duration) {
	t.Helper()
	base, err := buildFlow(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	f := *base
	t0 := time.Now()
	res, _, err := f.CorrectWindowedCtx(context.Background(), target, level, tile, parallel)
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(t0)
	out := layout.New("corrected")
	cell := out.MustCell("TOP")
	for _, p := range res.Corrected {
		cell.AddPolygon(layout.OPCLayer(layout.Poly), p)
	}
	out.SetTop(cell)
	var buf bytes.Buffer
	if _, err := layout.WriteGDS(&buf, out); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), wall
}

// fetchResult downloads a done job's result.gds.
func fetchResult(t *testing.T, c *Client, id string) []byte {
	t.Helper()
	var got bytes.Buffer
	if _, err := c.Fetch(context.Background(), id, "result.gds", &got); err != nil {
		t.Fatalf("fetch %s result: %v", id, err)
	}
	return got.Bytes()
}

// TestServerClusterParity: a coordinator daemon with two in-process
// workers corrects a job whose every class solves remotely, and the
// result is bit-identical to the direct single-process run.
func TestServerClusterParity(t *testing.T) {
	target := fourClusters()
	var co *cluster.Coordinator
	env := startTestServer(t, func(c *Config) { co = testCoordinator(c) })
	runInprocWorker(t, env.ts.URL, "inproc-1")
	runInprocWorker(t, env.ts.URL, "inproc-2")
	waitClusterWorkers(t, co, 2)

	spec := JobSpec{Level: "L2", TileNM: 2500, Flow: testSpec()}
	st, err := env.c.SubmitGDS(context.Background(), spec, bytes.NewReader(gdsBytes(t, target)))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final := waitState(t, env.c, st.ID, func(s JobStatus) bool { return s.State.Terminal() }, "terminal")
	if final.State != StateDone {
		t.Fatalf("cluster job %s (%s), want done", final.State, final.Error)
	}
	if final.Stats == nil || final.Stats.RemoteTiles == 0 {
		t.Fatalf("no remote tiles in stats: %+v", final.Stats)
	}

	want, _ := directRun(t, target, core.L2, 2500, true)
	if got := fetchResult(t, env.c, st.ID); !bytes.Equal(got, want) {
		t.Errorf("cluster result.gds (%d bytes) differs from direct run (%d bytes)",
			len(got), len(want))
	}

	// The /cluster/status endpoint is mounted on the same mux.
	resp, err := http.Get(env.ts.URL + "/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cs cluster.StatusReport
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		t.Fatal(err)
	}
	if len(cs.Workers) != 2 || cs.Remote == 0 || cs.Completed == 0 {
		t.Errorf("cluster status after job: %+v", cs)
	}
}

// TestServerClusterDownFallsBackLocal: a coordinator with zero workers
// must complete jobs single-process with identical output — the
// degenerate cluster is never worse than no cluster.
func TestServerClusterDownFallsBackLocal(t *testing.T) {
	target := fourClusters()
	var co *cluster.Coordinator
	env := startTestServer(t, func(c *Config) { co = testCoordinator(c) })

	spec := JobSpec{Level: "L2", TileNM: 2500, Flow: testSpec()}
	st, err := env.c.SubmitGDS(context.Background(), spec, bytes.NewReader(gdsBytes(t, target)))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final := waitState(t, env.c, st.ID, func(s JobStatus) bool { return s.State.Terminal() }, "terminal")
	if final.State != StateDone {
		t.Fatalf("workerless cluster job %s (%s), want done", final.State, final.Error)
	}
	if final.Stats == nil || final.Stats.RemoteTiles != 0 {
		t.Fatalf("workerless job reported remote tiles: %+v", final.Stats)
	}
	want, _ := directRun(t, target, core.L2, 2500, true)
	if got := fetchResult(t, env.c, st.ID); !bytes.Equal(got, want) {
		t.Error("local-fallback result differs from direct run")
	}
	if cs := co.Status(); cs.Fallbacks == 0 {
		t.Errorf("no local fallbacks recorded: %+v", cs)
	}
}

// TestServerTenantQuota: one tenant hits its per-tenant queue cap and
// gets 429 while the global queue still has room and another tenant is
// still admitted. /status reports the per-tenant breakdown.
func TestServerTenantQuota(t *testing.T) {
	env := startTestServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 8
		c.TenantQuota = 1
	})
	// A slow tiled job holds the single pool worker so later ones queue.
	small := fourClusters()[:1]
	slow := JobSpec{Level: "L2", TileNM: 2500, Flow: testSpec(),
		Inject: "seed=1;tile:delay:n=50:d=30s", Tenant: "acme"}
	submit := func(spec JobSpec) (JobStatus, error) {
		return env.c.SubmitGDS(context.Background(), spec, bytes.NewReader(gdsBytes(t, small)))
	}
	st1, err := submit(slow)
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	waitState(t, env.c, st1.ID, func(s JobStatus) bool { return s.State == StateRunning }, "running")

	st2, err := submit(slow)
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	if _, err := submit(slow); err == nil {
		t.Fatal("third acme job admitted past the tenant quota")
	} else {
		var be *BusyError
		if !asBusy(err, &be) || !strings.Contains(be.Message, "tenant") {
			t.Fatalf("quota rejection: got %v, want tenant BusyError", err)
		}
	}
	other := slow
	other.Tenant = "umbra"
	st3, err := submit(other)
	if err != nil {
		t.Fatalf("other tenant rejected alongside acme's quota: %v", err)
	}

	// /status surfaces the per-tenant queue view.
	resp, err := http.Get(env.ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"acme"`) || !strings.Contains(string(body), `"umbra"`) {
		t.Errorf("/status missing tenant breakdown: %s", body)
	}

	for _, id := range []string{st1.ID, st2.ID, st3.ID} {
		if _, err := env.c.Cancel(context.Background(), id); err != nil {
			t.Errorf("cancel %s: %v", id, err)
		}
	}
}

func asBusy(err error, out **BusyError) bool {
	be, ok := err.(*BusyError)
	if ok {
		*out = be
	}
	return ok
}

// spawnWorker re-execs the test binary as a real worker process.
func spawnWorker(t *testing.T, url, name, inject string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		"GOOPC_WORKER_JOIN="+url,
		"GOOPC_WORKER_NAME="+name,
		"GOOPC_WORKER_INJECT="+inject)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	})
	return cmd
}

// waitWorkerHoldsShard waits until the named worker is mid-shard.
func waitWorkerHoldsShard(t *testing.T, co *cluster.Coordinator, name string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		for _, w := range co.Status().Workers {
			if w.Name == name && w.Shard != "" {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("worker %s never held a shard: %+v", name, co.Status())
}

// manyClusters builds n geometrically distinct isolated clusters, each
// its own equivalence class, three tiles apart at tile 2500.
func manyClusters(n int) []geom.Polygon {
	out := make([]geom.Polygon, n)
	for i := range out {
		x := geom.Coord(200 + 7500*i)
		h := geom.Coord(600 + 180*i)
		out[i] = geom.R(x, 200, x+180, 200+h).Polygon()
	}
	return out
}

// TestClusterSmoke is the end-to-end robustness gate (make
// cluster-smoke): a coordinator with three REAL worker processes
// survives kill -9 of one worker mid-shard with bit-identical output,
// and — on machines with the cores for it — a clean 3-worker run
// beats the forced-serial single-process run on the same workload.
func TestClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster smoke spawns worker subprocesses")
	}
	target := manyClusters(8)
	const level, tile = core.L3, geom.Coord(2500)
	var co *cluster.Coordinator
	env := startTestServer(t, func(c *Config) { co = testCoordinator(c) })

	// Three workers; the victim stalls forever on every class it
	// touches, so the kill below always lands mid-shard. The clean
	// workers stall 1s on each of their first two classes, so the
	// pending queue cannot drain — and an idle clean worker cannot steal
	// the victim's shard — before the victim's 500ms lease expires: the
	// kill is recovered by requeue, the path this test exists to check,
	// not by a straggler steal.
	const cleanInject = "seed=1;worker.solve:delay:n=2:d=1s"
	spawnWorker(t, env.ts.URL, "clean-1", cleanInject)
	spawnWorker(t, env.ts.URL, "clean-2", cleanInject)
	victim := spawnWorker(t, env.ts.URL, "victim", "seed=1;worker.solve:delay:n=99:d=120s")
	waitClusterWorkers(t, co, 3)

	// The oracle and serial baseline, measured while the cluster idles.
	want, serialWall := directRun(t, target, level, tile, false)

	spec := JobSpec{Level: "L3", TileNM: tile, Flow: testSpec()}
	st, err := env.c.SubmitGDS(context.Background(), spec, bytes.NewReader(gdsBytes(t, target)))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitWorkerHoldsShard(t, co, "victim")
	if err := victim.Process.Kill(); err != nil { // SIGKILL, mid-shard
		t.Fatal(err)
	}
	final := waitState(t, env.c, st.ID, func(s JobStatus) bool { return s.State.Terminal() }, "terminal")
	if final.State != StateDone {
		t.Fatalf("job after worker kill: %s (%s), want done", final.State, final.Error)
	}
	if final.Stats == nil || final.Stats.RemoteTiles == 0 {
		t.Fatalf("no remote tiles after worker kill: %+v", final.Stats)
	}
	if got := fetchResult(t, env.c, st.ID); !bytes.Equal(got, want) {
		t.Errorf("post-kill result.gds (%d bytes) differs from direct serial run (%d bytes)",
			len(got), len(want))
	}
	cs := co.Status()
	if cs.Requeued == 0 {
		t.Errorf("kill -9 mid-shard did not requeue: %+v", cs)
	}

	// Clean timed run with three healthy workers. Skipped on small
	// machines: the comparison needs the coordinator and three workers
	// to actually run concurrently.
	if runtime.NumCPU() < 4 {
		t.Logf("only %d CPUs; skipping the cluster-vs-serial timing assertion", runtime.NumCPU())
		return
	}
	spawnWorker(t, env.ts.URL, "clean-3", "")
	waitClusterWorkers(t, co, 3) // victim's registration expires; clean-3 joins
	st2, err := env.c.SubmitGDS(context.Background(), spec, bytes.NewReader(gdsBytes(t, target)))
	if err != nil {
		t.Fatalf("submit timed run: %v", err)
	}
	final2 := waitState(t, env.c, st2.ID, func(s JobStatus) bool { return s.State.Terminal() }, "terminal")
	if final2.State != StateDone {
		t.Fatalf("timed run: %s (%s)", final2.State, final2.Error)
	}
	if got := fetchResult(t, env.c, st2.ID); !bytes.Equal(got, want) {
		t.Errorf("timed-run result differs from direct serial run")
	}
	clusterWall := time.Duration(final2.Latency.RunSeconds * float64(time.Second))
	t.Logf("cluster wall %s vs single-process serial wall %s", clusterWall, serialWall)
	if clusterWall >= serialWall {
		t.Errorf("3-worker cluster (%s) not faster than single-process serial (%s)",
			clusterWall, serialWall)
	}
}
