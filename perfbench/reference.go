package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"strconv"
)

// referencePath is the per-seed reference of the batch workload's
// outputs, relative to the repository root the benchmark runs from.
const referencePath = "perfbench/reference.json"

// refEntry is one (workload, seed) reference: the output digest and
// data volume, the fidelity, and the work counters of one pass, all of
// which must repeat exactly.
type refEntry struct {
	SHA256     string           `json:"sha256"`
	MaskShots  int              `json:"mask_shots"`
	GDSBytes   int64            `json:"gds_bytes"`
	WorstRMSNM float64          `json:"worst_rms_nm"`
	Counters   map[string]int64 `json:"counters"`
}

// determinismCounters are the work counters that must repeat exactly
// across passes and runs at one seed.
var determinismCounters = []string{
	"fft.transforms", "optics.images", "model.iterations",
	"core.tile_solves", "patlib.exact_hits",
}

type referenceFile map[string]map[string]refEntry

func loadReference() (referenceFile, error) {
	b, err := os.ReadFile(referencePath)
	if errors.Is(err, fs.ErrNotExist) {
		return referenceFile{}, nil
	}
	if err != nil {
		return nil, err
	}
	var ref referenceFile
	if err := json.Unmarshal(b, &ref); err != nil {
		return nil, fmt.Errorf("%s: %w", referencePath, err)
	}
	return ref, nil
}

// checkReference compares one pass's outputs with the reference entry
// for (workload, seed), or records them there when cfg.record is set.
// Seeds without an entry are reported as such; the invariant checks the
// workload makes itself still apply to them.
func checkReference(cfg config, m *measured, got refEntry) error {
	ref, err := loadReference()
	if err != nil {
		return err
	}
	key := strconv.FormatInt(cfg.seed, 10)
	if cfg.record {
		if ref[cfg.workload] == nil {
			ref[cfg.workload] = map[string]refEntry{}
		}
		ref[cfg.workload][key] = got
		b, err := json.MarshalIndent(ref, "", "  ")
		if err != nil {
			return err
		}
		b = append(b, '\n')
		m.fact("reference", "recorded")
		return os.WriteFile(referencePath, b, 0o644)
	}
	want, ok := ref[cfg.workload][key]
	if !ok {
		m.fact("reference", "none for this seed: invariant checks only")
		return nil
	}
	m.fact("reference", "compared")
	if got.SHA256 != want.SHA256 {
		m.fail("output GDS sha256 %s, reference %s", got.SHA256, want.SHA256)
	}
	if got.MaskShots != want.MaskShots {
		m.fail("mask_shots %d, reference %d", got.MaskShots, want.MaskShots)
	}
	if got.GDSBytes != want.GDSBytes {
		m.fail("gds_bytes %d, reference %d", got.GDSBytes, want.GDSBytes)
	}
	if math.Abs(got.WorstRMSNM-want.WorstRMSNM) > 1e-9 {
		m.fail("worst_rms_nm %.12g, reference %.12g", got.WorstRMSNM, want.WorstRMSNM)
	}
	for _, k := range determinismCounters {
		if got.Counters[k] != want.Counters[k] {
			m.fail("counter %s = %d per pass, reference %d", k, got.Counters[k], want.Counters[k])
		}
	}
	return nil
}
