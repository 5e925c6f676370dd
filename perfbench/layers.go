package main

import (
	"math"
	"strings"

	"goopc/internal/obs"
)

// counterMetrics maps per-layer count metrics to the obs.Default()
// series they are read from. A name listing several series sums them;
// "hist:" series read a histogram's sum of observations.
var counterMetrics = map[string][]string{
	"fft.transforms":           {"goopc_fft_transforms_total"},
	"optics.images":            {"goopc_images_socs_total", "goopc_images_socs_f32_total", "goopc_images_abbe_total"},
	"model.runs":               {"goopc_model_runs_total"},
	"model.iterations":         {"hist:goopc_model_iterations"},
	"model.early_exits":        {"goopc_model_early_exit_total"},
	"core.tiles":               {"goopc_tiles_scheduled_total"},
	"core.tiles_pruned":        {"goopc_tiles_empty_pruned_total"},
	"core.tile_solves":         {"goopc_tiles_corrected_total"},
	"core.tile_reuses":         {"goopc_tiles_reused_total"},
	"core.tile_clean":          {"goopc_tiles_clean_skipped_total"},
	"patlib.exact_hits":        {"goopc_patlib_exact_hits_total"},
	"patlib.similar_hits":      {"goopc_patlib_similarity_hits_total"},
	"patlib.misses":            {"goopc_patlib_misses_total"},
	"patlib.appends":           {"goopc_patlib_appends_total"},
	"server.rejected":          {"goopc_server_jobs_rejected_total"},
	"server.checkpoint_writes": {"goopc_checkpoint_writes_total"},
}

// countersOf reads every counterMetrics entry out of a registry delta.
func countersOf(counters map[string]int64, hists map[string]float64) map[string]int64 {
	out := make(map[string]int64, len(counterMetrics))
	for name, series := range counterMetrics {
		var v int64
		for _, s := range series {
			if h, ok := strings.CutPrefix(s, "hist:"); ok {
				v += int64(math.Round(hists[h]))
			} else {
				v += counters[s]
			}
		}
		out[name] = v
	}
	return out
}

// counterSnap is a registry snapshot taken before one unit of work.
type counterSnap struct{ s obs.Snapshot }

func snapCounters() counterSnap { return counterSnap{obs.Default().Snapshot()} }

// delta returns the per-layer counts accrued since the snapshot.
func (c counterSnap) delta() map[string]int64 {
	now := obs.Default().Snapshot()
	counters := map[string]int64{}
	for k, v := range now.Counters {
		counters[k] = v - c.s.Counters[k]
	}
	hists := map[string]float64{}
	for k, h := range now.Histograms {
		hists[k] = h.Sum - c.s.Histograms[k].Sum
	}
	return countersOf(counters, hists)
}

// perLayerNames lists every per-layer metric with its unit; each
// workload reports all of them (0 where a layer does no work).
var perLayerNames = map[string]string{
	"fft.transforms": unitCount, "fft.cpu_s": unitS,
	"optics.images": unitCount, "optics.kernel_hit_ratio": unitRatio, "optics.cpu_s": unitS, "optics.image_ms": unitMS,
	"resist.cpu_s": unitS, "opc.cpu_s": unitS,
	"model.runs": unitCount, "model.iterations": unitCount, "model.early_exits": unitCount, "model.cpu_s": unitS,
	"rules.cpu_s": unitS, "geom.cpu_s": unitS,
	"core.tiles": unitCount, "core.tiles_pruned": unitCount, "core.tile_solves": unitCount,
	"core.tile_reuses": unitCount, "core.tile_clean": unitCount, "core.cpu_s": unitS,
	"core.reuse_ratio": unitRatio, "core.worker_busy_frac": unitRatio, "core.worst_rms_nm": "nm",
	"patlib.open_s": unitS, "patlib.records": unitCount, "patlib.exact_hits": unitCount,
	"patlib.similar_hits": unitCount, "patlib.misses": unitCount, "patlib.appends": unitCount,
	"patlib.cpu_s": unitS, "patmatch.cpu_s": unitS,
	"mask.analyze_s": unitS, "gds.write_s": unitS, "gds.read_s": unitS, "mask.cpu_s": unitS, "gds.cpu_s": unitS,
	"server.submit_ms_p50": unitMS, "server.fetch_ms_p50": unitMS, "server.queue_s_p50": unitS,
	"server.run_s_p50": unitS, "server.overhead_ms_p50": unitMS, "server.round_trip_ms_p50": unitMS, "server.warm_ms_p50": unitMS, "server.rejected": unitCount,
	"server.checkpoint_writes": unitCount, "server.cpu_s": unitS,
	"runtime.alloc_mb": unitMB, "runtime.gc_cpu_s": unitS, "runtime.cpu_s": unitS,
	"obs.cpu_s": unitS, "obs.trace_overhead_frac": unitRatio,
	"ledger.coverage": unitRatio,
	"flow.tail_s":     unitS, "flow.tail_pct": unitPct, "flow.samples": unitCount, "flow.fail_frac": unitRatio,
}

// ledgerMetrics maps module cpu_s metrics to the ledger modules they
// sum; gds.cpu_s covers both GDS packages (gds and layout).
var ledgerMetrics = map[string][]string{
	"fft.cpu_s": {"fft"}, "optics.cpu_s": {"optics"}, "resist.cpu_s": {"resist"},
	"opc.cpu_s": {"opc"}, "model.cpu_s": {"model"}, "rules.cpu_s": {"rules"},
	"geom.cpu_s": {"geom"}, "core.cpu_s": {"core"}, "patlib.cpu_s": {"patlib"},
	"patmatch.cpu_s": {"patmatch"}, "mask.cpu_s": {"mask"}, "gds.cpu_s": {"gds", "layout"},
	"server.cpu_s": {"server"}, "obs.cpu_s": {"obs"}, "runtime.cpu_s": {runtimeModule},
}

// layerMetrics assembles the per-layer metrics of a traced phase of
// `units` units: counts and CPU seconds per unit, from the registry
// delta d and the ledger, plus the workload's own probes in extra.
func layerMetrics(d windowDelta, units float64, m *measured, extra map[string]metric) map[string]metric {
	out := make(map[string]metric, len(perLayerNames))
	for name, unit := range perLayerNames {
		out[name] = metric{0, unit}
	}
	for name, v := range countersOf(d.counters, d.histSums) {
		if u, ok := perLayerNames[name]; ok {
			out[name] = metric{float64(v) / units, u}
		}
	}
	hits := float64(d.counters["goopc_kernel_cache_hits_total"])
	misses := float64(d.counters["goopc_kernel_cache_misses_total"])
	if hits+misses > 0 {
		out["optics.kernel_hit_ratio"] = metric{hits / (hits + misses), unitRatio}
	}
	var modules float64
	for mod, s := range m.ledger {
		if mod != runtimeModule {
			modules += s
		}
	}
	for name, mods := range ledgerMetrics {
		var s float64
		for _, mod := range mods {
			s += m.ledger[mod]
		}
		out[name] = metric{s / units, unitS}
	}
	if d.cpu > 0 {
		out["ledger.coverage"] = metric{modules / d.cpu, unitRatio}
	}
	out["runtime.alloc_mb"] = metric{d.allocBytes / (1 << 20) / units, unitMB}
	out["runtime.gc_cpu_s"] = metric{d.gcCPU / units, unitS}
	tl := tailOf(m.tailSamples)
	out["flow.tail_s"] = metric{tl.Value, unitS}
	out["flow.tail_pct"] = metric{tl.Percentile, unitPct}
	out["flow.samples"] = metric{float64(tl.Samples), unitCount}
	if m.tilePasses > 0 {
		out["flow.fail_frac"] = metric{float64(m.tileFailed) / float64(m.tilePasses), unitRatio}
	}
	for k, v := range extra {
		out[k] = v
	}
	return out
}
