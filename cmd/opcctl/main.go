// Command opcctl is the opcd client: submit correction jobs, watch
// their live progress, fetch artifacts, cancel or purge.
//
// Usage:
//
//	opcctl [-server URL] submit -workload routed -level L3 [-watch]
//	opcctl [-server URL] submit -gds in.gds -layer 2 -level L2 -verify
//	opcctl [-server URL] submit -batch jobs.jsonl
//	opcctl [-server URL] list
//	opcctl [-server URL] status <job-id>
//	opcctl [-server URL] watch <job-id>
//	opcctl [-server URL] fetch <job-id> result.gds [-o corrected.gds]
//	opcctl [-server URL] trace <job-id> [-o job.trace.json]
//	opcctl [-server URL] cancel <job-id>
//	opcctl [-server URL] cluster
//
// submit prints the assigned job ID; -watch streams progress until the
// job finishes and exits non-zero if it failed. -batch submits one job
// per JSONL line of JobSpecs (bulk dataset sweeps); -prior points the
// daemon at a fitted initial-bias table to warm-start model OPC. fetch streams an
// artifact (result.gds, report.json, orc.json) to -o or stdout. trace
// downloads the job's flight-recorder timeline as Chrome trace-event
// JSON — load it in Perfetto or chrome://tracing; it works on live
// jobs too (point-in-time snapshot). status includes the job's
// queued→running→done latency breakdown.
//
// Exit codes: 0 success, 1 request/server failure (including a watched
// job ending failed), 2 usage error, 3 server busy (429; the
// Retry-After hint is printed).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"goopc/internal/geom"
	"goopc/internal/obs"
	"goopc/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("opcctl", flag.ContinueOnError)
	serverURL := fs.String("server", "http://127.0.0.1:9800", "opcd base URL")
	version := fs.Bool("version", false, "print the build fingerprint and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Println("opcctl", obs.CollectBuildInfo())
		return 0
	}
	rest := fs.Args()
	if len(rest) == 0 {
		fmt.Fprintln(os.Stderr, "opcctl: need a subcommand: submit | list | status | watch | fetch | trace | cancel | cluster")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	c := server.NewClient(*serverURL)

	var err error
	switch rest[0] {
	case "submit":
		err = cmdSubmit(ctx, c, rest[1:])
	case "list":
		err = cmdList(ctx, c)
	case "status":
		err = cmdStatus(ctx, c, rest[1:])
	case "watch":
		err = cmdWatch(ctx, c, rest[1:])
	case "fetch":
		err = cmdFetch(ctx, c, rest[1:])
	case "trace":
		err = cmdTrace(ctx, c, rest[1:])
	case "cancel":
		err = cmdCancel(ctx, c, rest[1:])
	case "cluster":
		err = cmdCluster(ctx, c)
	default:
		fmt.Fprintf(os.Stderr, "opcctl: unknown subcommand %q\n", rest[0])
		return 2
	}
	return exitCode(err)
}

// usageErr marks command-line mistakes (exit 2).
type usageErr struct{ error }

func exitCode(err error) int {
	if err == nil {
		return 0
	}
	fmt.Fprintf(os.Stderr, "opcctl: %v\n", err)
	var ue usageErr
	if errors.As(err, &ue) {
		return 2
	}
	var be *server.BusyError
	if errors.As(err, &be) {
		return 3
	}
	return 1
}

func cmdSubmit(ctx context.Context, c *server.Client, args []string) error {
	fs := flag.NewFlagSet("opcctl submit", flag.ContinueOnError)
	gds := fs.String("gds", "", "upload this GDSII file (otherwise use -workload)")
	workload := fs.String("workload", "", "built-in workload: stdcell | sram | routed | patterns")
	layer := fs.Int("layer", 0, "drawn layer to correct (default 2, poly)")
	level := fs.String("level", "L3", "adoption level: L0 | L1 | L2 | L3")
	name := fs.String("name", "", "free-form job label")
	tile := fs.Int("tile", 0, "scheduler tile size in DBU (0 = 4x ambit)")
	priority := fs.Int("priority", 0, "queue priority (higher runs first)")
	tenant := fs.String("tenant", "", "tenant name for fair-share queueing and quotas")
	inject := fs.String("inject", "", "per-job fault plan (faults grammar)")
	verify := fs.Bool("verify", false, "run post-OPC verification, producing orc.json")
	fast := fs.Bool("fast", true, "reduced source sampling for speed")
	patlib := fs.Bool("patlib", false, "opt into the daemon's shared cross-run pattern library (needs opcd -patlib)")
	priorPath := fs.String("prior", "", "daemon-local path to a fitted initial-bias prior table (datasetgen fit)")
	batch := fs.String("batch", "", "submit a batch: one JobSpec JSON per line (\"-\" reads stdin)")
	flowJSON := fs.String("flow", "", "FlowSpec JSON file overriding the flow settings")
	watch := fs.Bool("watch", false, "stream progress until the job finishes")
	if err := fs.Parse(args); err != nil {
		return usageErr{err}
	}
	if *batch != "" {
		if *gds != "" || *workload != "" || *watch {
			return usageErr{errors.New("-batch is standalone: job specs come from the batch file, -watch is per-job")}
		}
		return submitBatch(ctx, c, *batch)
	}

	spec := server.JobSpec{
		Name:     *name,
		Workload: *workload,
		Layer:    *layer,
		Level:    *level,
		TileNM:   geom.Coord(*tile),
		Priority: *priority,
		Tenant:   *tenant,
		Inject:   *inject,
		Verify:   *verify,
	}
	if *fast {
		spec.Flow.SourceSteps = 5
		spec.Flow.GuardNM = 1200
	}
	if *flowJSON != "" {
		f, err := os.Open(*flowJSON)
		if err != nil {
			return err
		}
		err = server.DecodeSpec(f, &spec.Flow)
		f.Close()
		if err != nil {
			return fmt.Errorf("-flow: %w", err)
		}
	}
	if *patlib {
		spec.Flow.PatternLib = true
	}
	if *priorPath != "" {
		spec.Flow.Prior = *priorPath
	}

	var st server.JobStatus
	var err error
	if *gds != "" {
		f, ferr := os.Open(*gds)
		if ferr != nil {
			return ferr
		}
		st, err = c.SubmitGDS(ctx, spec, f)
		f.Close()
	} else {
		st, err = c.Submit(ctx, spec)
	}
	if err != nil {
		return err
	}
	fmt.Println(st.ID)
	if !*watch {
		return nil
	}
	return watchJob(ctx, c, st.ID)
}

// submitBatch submits one job per non-empty line of a JSONL file of
// JobSpecs (datasetgen sweeps use this to farm a dataset's cells out
// to a daemon). It fails fast on the first bad line or refused
// submission — already-submitted jobs keep running — and prints one
// assigned ID per job.
func submitBatch(ctx context.Context, c *server.Client, path string) error {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line, submitted := 0, 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var spec server.JobSpec
		if err := server.DecodeSpec(strings.NewReader(text), &spec); err != nil {
			return fmt.Errorf("batch line %d: %w", line, err)
		}
		st, err := c.Submit(ctx, spec)
		if err != nil {
			return fmt.Errorf("batch line %d: %w", line, err)
		}
		submitted++
		fmt.Println(st.ID)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if submitted == 0 {
		return usageErr{fmt.Errorf("batch %s: no job specs found", path)}
	}
	fmt.Fprintf(os.Stderr, "submitted %d jobs\n", submitted)
	return nil
}

func cmdList(ctx context.Context, c *server.Client) error {
	jobs, err := c.List(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %-10s %-6s %-20s %-10s %s\n", "ID", "STATE", "LEVEL", "SOURCE", "PROGRESS", "SUBMITTED")
	for _, j := range jobs {
		fmt.Printf("%-8s %-10s %-6s %-20s %-10s %s\n",
			j.ID, j.State, j.Spec.Level, sourceOf(j), progressOf(j),
			j.Submitted.Format(time.RFC3339))
	}
	return nil
}

func sourceOf(j server.JobStatus) string {
	if j.Upload {
		return "gds upload"
	}
	return "workload " + j.Spec.Workload
}

func progressOf(j server.JobStatus) string {
	switch j.State {
	case server.StateQueued:
		if j.QueuePos > 0 {
			return fmt.Sprintf("#%d", j.QueuePos)
		}
		return "-"
	case server.StateRunning:
		return fmt.Sprintf("%d/%d p%d", j.Progress.DoneTiles, j.Progress.TotalTiles, j.Progress.Pass)
	}
	if j.Stats != nil {
		return fmt.Sprintf("%d tiles", j.Stats.Tiles)
	}
	return "-"
}

func jobArg(args []string, cmd string) (string, error) {
	if len(args) < 1 || args[0] == "" {
		return "", usageErr{fmt.Errorf("%s needs a job ID", cmd)}
	}
	return args[0], nil
}

func cmdStatus(ctx context.Context, c *server.Client, args []string) error {
	id, err := jobArg(args, "status")
	if err != nil {
		return err
	}
	st, err := c.Status(ctx, id)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(st)
}

func cmdWatch(ctx context.Context, c *server.Client, args []string) error {
	id, err := jobArg(args, "watch")
	if err != nil {
		return err
	}
	return watchJob(ctx, c, id)
}

// watchJob streams SSE progress to stderr and reports the terminal
// state; a failed job is an error (exit 1).
func watchJob(ctx context.Context, c *server.Client, id string) error {
	var lastLine string
	final, err := c.Watch(ctx, id, func(st server.JobStatus) {
		line := fmt.Sprintf("%s %s %s", st.ID, st.State, progressOf(st))
		if line != lastLine {
			fmt.Fprintln(os.Stderr, line)
			lastLine = line
		}
	})
	if err != nil {
		return err
	}
	if l := final.Latency; l != nil {
		fmt.Fprintf(os.Stderr, "%s latency: queued=%.2fs running=%.2fs total=%.2fs\n",
			final.ID, l.QueueSeconds, l.RunSeconds, l.TotalSeconds)
	}
	switch final.State {
	case server.StateDone:
		if final.Stats != nil {
			fmt.Printf("%s done: tiles=%d failed_tiles=%d time=%.2fs worstRMS=%.2f polygons=%d\n",
				final.ID, final.Stats.Tiles, final.Stats.FailedTiles,
				final.Stats.Seconds, final.Stats.WorstRMS, final.Stats.Polygons)
			s := final.Stats
			if s.LibExactTiles+s.LibSimilarTiles+s.LibHaloRejects+s.LibMisses+s.LibAppends > 0 {
				fmt.Printf("%s patlib: exact=%d similar=%d halo-rejects=%d misses=%d appends=%d\n",
					final.ID, s.LibExactTiles, s.LibSimilarTiles, s.LibHaloRejects,
					s.LibMisses, s.LibAppends)
			}
			if s.WarmTiles > 0 || s.PriorSavedIters > 0 {
				fmt.Printf("%s prior: warm-tiles=%d warm-fragments=%d saved-iterations=%d mean-iterations=%.2f\n",
					final.ID, s.WarmTiles, s.WarmFragments, s.PriorSavedIters, s.MeanIterations)
			}
		} else {
			fmt.Printf("%s done\n", final.ID)
		}
		return nil
	case server.StateCancelled:
		return fmt.Errorf("job %s was cancelled", final.ID)
	default:
		return fmt.Errorf("job %s %s: %s", final.ID, final.State, final.Error)
	}
}

func cmdFetch(ctx context.Context, c *server.Client, args []string) error {
	fs := flag.NewFlagSet("opcctl fetch", flag.ContinueOnError)
	out := fs.String("o", "", "write the artifact here (default stdout)")
	// Accept both "fetch <id> <artifact> -o f" and "fetch -o f <id> <artifact>".
	var pos []string
	for len(args) > 0 {
		if strings.HasPrefix(args[0], "-") {
			if err := fs.Parse(args); err != nil {
				return usageErr{err}
			}
			args = fs.Args()
			continue
		}
		pos = append(pos, args[0])
		args = args[1:]
	}
	if len(pos) < 1 {
		return usageErr{fmt.Errorf("fetch needs a job ID")}
	}
	id := pos[0]
	artifact := "result.gds"
	if len(pos) > 1 {
		artifact = pos[1]
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	n, err := c.Fetch(ctx, id, artifact, w)
	if err != nil {
		return err
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "wrote %s (%d bytes)\n", *out, n)
	}
	return nil
}

// cmdTrace downloads the job's flight-recorder timeline as Chrome
// trace-event JSON.
func cmdTrace(ctx context.Context, c *server.Client, args []string) error {
	fs := flag.NewFlagSet("opcctl trace", flag.ContinueOnError)
	out := fs.String("o", "", "write the trace here (default stdout)")
	var pos []string
	for len(args) > 0 {
		if strings.HasPrefix(args[0], "-") {
			if err := fs.Parse(args); err != nil {
				return usageErr{err}
			}
			args = fs.Args()
			continue
		}
		pos = append(pos, args[0])
		args = args[1:]
	}
	if len(pos) < 1 {
		return usageErr{fmt.Errorf("trace needs a job ID")}
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	n, err := c.Trace(ctx, pos[0], w)
	if err != nil {
		return err
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "wrote %s (%d bytes); open it in Perfetto or chrome://tracing\n", *out, n)
	}
	return nil
}

// cmdCluster prints the coordinator's worker table and shard counters
// (opcd must be running with -cluster).
func cmdCluster(ctx context.Context, c *server.Client) error {
	st, err := c.ClusterStatus(ctx)
	if err != nil {
		return err
	}
	circuit := ""
	if st.CircuitOpen {
		circuit = " [circuit open: solving locally]"
	}
	fmt.Printf("workers=%d jobs=%d shards pending=%d inflight=%d%s\n",
		len(st.Workers), st.Jobs, st.PendingShards, st.InflightShards, circuit)
	fmt.Printf("lifetime: assigned=%d completed=%d requeued=%d stolen=%d abandoned=%d\n",
		st.Assigned, st.Completed, st.Requeued, st.Stolen, st.Abandoned)
	fmt.Printf("classes: remote=%d failed=%d duplicates=%d local-fallbacks=%d\n",
		st.Remote, st.Failed, st.Duplicates, st.Fallbacks)
	if len(st.Workers) > 0 {
		fmt.Printf("%-14s %-16s %-24s %s\n", "ID", "NAME", "SHARD", "LAST SEEN")
		for _, w := range st.Workers {
			shard := w.Shard
			if shard == "" {
				shard = "-"
			}
			fmt.Printf("%-14s %-16s %-24s %s\n", w.ID, w.Name, shard, w.LastSeen)
		}
	}
	return nil
}

func cmdCancel(ctx context.Context, c *server.Client, args []string) error {
	id, err := jobArg(args, "cancel")
	if err != nil {
		return err
	}
	st, err := c.Cancel(ctx, id)
	if err != nil {
		return err
	}
	fmt.Printf("%s %s\n", st.ID, st.State)
	return nil
}
