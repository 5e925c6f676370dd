package fft

import (
	"os"

	"goopc/internal/obs"
)

// Butterfly kernel dispatch. The transforms run their per-stage hot
// loops through the function variables below, which default to the
// pure-Go reference kernels and are swapped for architecture-specific
// SIMD implementations (AVX2 on amd64, NEON on arm64) exactly once at
// process init. Selection:
//
//   - build with `-tags purego` to compile the assembly out entirely
//     (the per-arch install hooks become no-ops);
//   - set GOOPC_NOASM=1 (any non-empty value) to force the reference
//     kernels at runtime without rebuilding;
//   - otherwise the amd64 path probes CPUID for AVX2 (plus OS AVX
//     state support) and the arm64 path uses NEON unconditionally
//     (advanced SIMD is baseline on arm64).
//
// Every assembly kernel is proven value-identical to the reference by
// the equivalence and fuzz tests in equiv_test.go (zero-sign flips from
// exact-unit twiddles are the one permitted discrepancy, the same
// allowance the fused stage-2/4 pass has always had).

// Kernel names as reported by KernelName and the goopc_fft_kernel_*
// series.
const (
	kernelGeneric = "generic"
	kernelAVX2    = "avx2"
	kernelNEON    = "neon"
)

var (
	// kernelName is the active kernel, fixed at init.
	kernelName = kernelGeneric

	// complex128 stage kernels.
	stage24    = stage24Generic
	stage      = stageGeneric
	stageScale = stageScaleGeneric

	// mKernelDispatch counts transform entries (1-D calls and 2-D plan
	// applications) dispatched to the active kernel; the series name
	// carries the kernel, so which kernel served a process is readable
	// straight off /metrics.
	mKernelDispatch *obs.Counter
)

func init() {
	if os.Getenv("GOOPC_NOASM") == "" {
		installArchKernels()
	}
	obs.Default().SetLabel("fft_kernel", kernelName)
	mKernelDispatch = obs.Default().Counter(
		"goopc_fft_kernel_dispatch_"+kernelName+"_total",
		"transform entries (1-D calls and 2-D plan applies) run on the active butterfly kernel")
}

// KernelName reports which butterfly kernel the dispatch selected for
// this process: "avx2", "neon" or "generic".
func KernelName() string { return kernelName }
