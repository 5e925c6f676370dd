// Command perfbench is the goopc repository benchmark. One invocation
// runs one named workload at one seed for a fixed measuring time,
// checks the program's outputs, and prints every metric with its unit;
// the last line of standard output is the machine-readable result. Run
// it from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload routed_l3_cold --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 adds a second,
// traced measuring phase at the same seed and reports the per-layer
// metrics: registry counter deltas, the core flight recorder,
// benchmark-timed calls into layer entry points, and a CPU profile
// charged to repository modules (the cost ledger). README.md defines
// every metric and workload.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"goopc/internal/obs"
)

// unit names of the reported metrics.
const (
	unitS     = "s"
	unitMS    = "ms"
	unitMB    = "MB"
	unitCount = "count"
	unitBytes = "B"
	unitRate  = "1/s"
	unitRatio = "ratio"
	unitPct   = "%"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// record rewrites this seed's entry in the reference file instead
	// of comparing against it.
	record bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measured is what a workload run hands back for reporting. A "unit" of
// work is one correction pass on routed_l3_cold and one job round
// trip on opcd_mix.
type measured struct {
	setup []float64 // seconds per set-up repetition
	// units are the flow_s samples: wall seconds per batch pass, or the
	// daemon-side latency of each opcd upload job. completed counts every
	// finished unit (opcd: every job); tailSamples are the tail's samples
	// (batch: the passes; opcd: every job's client round trip).
	units       []float64
	completed   int
	tailSamples []float64
	// warm are opcd's daemon-side latencies of the repeat jobs.
	warm  []float64
	timed windowDelta
	// shots and gdsBytes are per-unit output sizes (mask.Analyze shots,
	// written GDS bytes).
	shots, gdsBytes []float64
	// attempted/failed count units; tilePasses/tileFailed the batch
	// tile-passes (opcd: jobs and failed-or-refused jobs).
	attempted, failed      int
	tilePasses, tileFailed int
	// problems lists every failed correctness check.
	problems []string
	// facts are extra recorded values (digests, reference status...)
	// written to the result file.
	facts map[string]any
	// layer holds the per-layer metrics of a traced run.
	layer map[string]metric
	// ledger is CPU seconds per module of the traced phase; top the
	// ranking printed for it.
	ledger map[string]float64
	spans  []span
}

func (m *measured) fail(format string, args ...any) {
	m.problems = append(m.problems, fmt.Sprintf(format, args...))
}

func (m *measured) fact(k string, v any) {
	if m.facts == nil {
		m.facts = map[string]any{}
	}
	m.facts[k] = v
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, config) (*measured, error){
	"routed_l3_cold": runRoutedCold,
	"opcd_mix":       runOpcdMix,
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload: routed_l3_cold | opcd_mix")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measuring time per phase, seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 adds the traced phase and reports per-layer metrics")
	fs.BoolVar(&cfg.record, "record-reference", false, "write this seed's outputs to the reference file instead of checking them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = traceFlag != 0
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds\n", cfg.workload)
		return 2
	}
	if err := os.MkdirAll(buildDir(), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	m, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line := report(cfg, m, stdout)
	if err := writeResultFile(cfg, m, line); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: result file:", err)
		return 1
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// endToEnd computes the end-to-end metrics of an untraced phase.
func endToEnd(m *measured) map[string]metric {
	n := float64(m.completed)
	return map[string]metric{
		"setup_s":      {median(m.setup), unitS},
		"flow_s":       {median(m.units), unitS},
		"flow_cpu_s":   {m.timed.cpu / n, unitS},
		"units_per_s":  {n / m.timed.wall, unitRate},
		"peak_heap_mb": {m.timed.peakHeap / (1 << 20), unitMB},
		"mask_shots":   {mean(m.shots), unitCount},
		"gds_bytes":    {mean(m.gdsBytes), unitBytes},
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// report prints the human-readable summary and builds the result line.
func report(cfg config, m *measured, w io.Writer) resultLine {
	bi := obs.CollectBuildInfo()
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%t\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d fft=%s %s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), bi.FFTKernel, bi.GoVersion)
	e2e := endToEnd(m)
	tl := tailOf(m.tailSamples)
	fmt.Fprintf(w, "units: %d completed in %.3fs; flow_s median of %d samples %.4gs; tail %.4gs = p%.1f of %d samples (%d beyond)\n",
		m.completed, m.timed.wall, len(m.units), median(m.units), tl.Value, tl.Percentile, tl.Samples, tl.Beyond)
	if len(m.warm) > 0 {
		fmt.Fprintf(w, "opcd: repeat-job latency median %.4gs of %d; client round trip median %.4gs\n",
			median(m.warm), len(m.warm), median(m.tailSamples))
	}
	printMetrics(w, "end-to-end", e2e)
	failFrac := 0.0
	if m.tilePasses > 0 {
		failFrac = float64(m.tileFailed) / float64(m.tilePasses)
	}
	fmt.Fprintf(w, "fail_frac: %d/%d = %.4f\n", m.tileFailed, m.tilePasses, failFrac)
	line := resultLine{
		Correct:   len(m.problems) == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   e2e,
	}
	if cfg.trace {
		printMetrics(w, "per-layer", m.layer)
		top := topModules(m.ledger, 3)
		var parts []string
		for _, t := range top {
			parts = append(parts, fmt.Sprintf("%s %.1f%%", t.Module, 100*t.Share))
		}
		fmt.Fprintf(w, "top modules by cpu_s: %s | ledger.coverage=%.3f obs.trace_overhead_frac=%.3f\n",
			strings.Join(parts, ", "), m.layer["ledger.coverage"].Value, m.layer["obs.trace_overhead_frac"].Value)
		line.Metrics = m.layer
	}
	if len(m.problems) == 0 {
		fmt.Fprintln(w, "correct: all checks passed")
	}
	for _, p := range m.problems {
		fmt.Fprintln(w, "INCORRECT:", p)
	}
	return line
}

func printMetrics(w io.Writer, title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s:\n", title)
	for _, k := range names {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

// writeResultFile stores everything a later comparison needs — metrics,
// host facts, per-unit samples, recorded facts, the ledger and spans —
// as <build dir>/results/<workload>-seed<seed>-trace<0|1>.json.
func writeResultFile(cfg config, m *measured, line resultLine) error {
	dir := filepath.Join(buildDir(), "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	bi := obs.CollectBuildInfo()
	doc := map[string]any{
		"workload": cfg.workload,
		"seed":     cfg.seed,
		"seconds":  cfg.seconds,
		"trace":    cfg.trace,
		"host": map[string]any{
			"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"fft_kernel": bi.FFTKernel, "go": bi.GoVersion, "goarch": bi.GOARCH,
		},
		"result":       line,
		"end_to_end":   endToEnd(m),
		"tail":         tailOf(m.tailSamples),
		"setup_s":      m.setup,
		"unit_s":       m.units,
		"tail_samples": m.tailSamples,
		"tile_passes":  m.tilePasses,
		"tile_failed":  m.tileFailed,
		"problems":     m.problems,
		"facts":        m.facts,
	}
	if cfg.trace {
		doc["ledger_cpu_s"] = m.ledger
		doc["top_modules"] = topModules(m.ledger, 3)
		doc["spans"] = m.spans
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, boolInt(cfg.trace))
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// buildDir is where runs keep scratch state and results: the build
// directory run.sh builds into ($CARGO_TARGET_DIR, default .bench_build),
// inside the checkout.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}
