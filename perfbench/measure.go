package main

import (
	"math"
	"runtime/metrics"
	"syscall"
	"time"

	"goopc/internal/obs"
)

// processCPU returns the process's user+system CPU seconds (getrusage).
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// runtimeSample reads the runtime/metrics the ledger reports: the heap
// in use (live and not-yet-swept objects plus fragmentation, the
// MemStats.HeapInuse equivalent), cumulative heap allocation, and GC CPU.
type runtimeSample struct {
	heapInuse, allocBytes, gcCPU float64
}

var runtimeKeys = []string{
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/unused:bytes",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		s[i].Name = k
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{heapInuse: val(0) + val(1), allocBytes: val(2), gcCPU: val(3)}
}

// heapPeak samples the heap in use every heapSampleEvery on its own
// goroutine until stop, keeping the highest sample of each
// heapSliceEvery slice of the phase.
type heapPeak struct {
	stopCh chan struct{}
	done   chan struct{}
	slices []float64 // written by the sampler; read after done closes
}

const (
	heapSampleEvery = 5 * time.Millisecond
	heapSliceEvery  = time.Second
)

func startHeapPeak() *heapPeak {
	h := &heapPeak{stopCh: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		sliceEnd := time.Now().Add(heapSliceEvery)
		peak := readRuntime().heapInuse
		for {
			select {
			case <-h.stopCh:
				h.slices = append(h.slices, math.Max(peak, readRuntime().heapInuse))
				return
			case now := <-t.C:
				peak = math.Max(peak, readRuntime().heapInuse)
				if now.After(sliceEnd) {
					h.slices = append(h.slices, peak)
					peak, sliceEnd = 0, now.Add(heapSliceEvery)
				}
			}
		}
	}()
	return h
}

// stop ends sampling and returns the median of the slice peaks in
// bytes. A single phase-wide maximum swings with where garbage
// collections happen to fall; the median slice peak repeats.
func (h *heapPeak) stop() float64 {
	close(h.stopCh)
	<-h.done
	return median(h.slices)
}

// window brackets a measured interval: wall clock, process CPU, the
// runtime metrics and the obs.Default() registry, read at both ends.
type window struct {
	t0   time.Time
	cpu0 float64
	rt0  runtimeSample
	reg0 obs.Snapshot
	heap *heapPeak
}

// windowDelta is what happened inside a window.
type windowDelta struct {
	wall, cpu  float64
	peakHeap   float64
	allocBytes float64
	gcCPU      float64
	counters   map[string]int64
	histSums   map[string]float64
}

func openWindow() *window {
	w := &window{reg0: obs.Default().Snapshot(), rt0: readRuntime()}
	w.heap = startHeapPeak()
	w.cpu0 = processCPU()
	w.t0 = time.Now()
	return w
}

func (w *window) close() windowDelta {
	wall := time.Since(w.t0).Seconds()
	cpu := processCPU() - w.cpu0
	peak := w.heap.stop()
	rt := readRuntime()
	reg := obs.Default().Snapshot()
	d := windowDelta{
		wall: wall, cpu: cpu, peakHeap: peak,
		allocBytes: rt.allocBytes - w.rt0.allocBytes,
		gcCPU:      rt.gcCPU - w.rt0.gcCPU,
		counters:   map[string]int64{},
		histSums:   map[string]float64{},
	}
	for k, v := range reg.Counters {
		d.counters[k] = v - w.reg0.Counters[k]
	}
	for k, h := range reg.Histograms {
		d.histSums[k] = h.Sum - w.reg0.Histograms[k].Sum
	}
	return d
}

// span is one benchmark-side call into a repository layer, recorded in
// traced runs and written out with the results.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// spanLog keeps spans in memory, relative to its creation time. A nil
// *spanLog records nothing, so untraced runs pay one branch per call.
// Spans are recorded from the one goroutine that drives the passes.
type spanLog struct {
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// start opens a span under parent (0 for a root) and returns the
// function that closes it along with the span's id.
func (l *spanLog) start(name string, parent int) (end func(), id int) {
	if l == nil {
		return func() {}, 0
	}
	id = len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(l.epoch).Seconds()})
	return func() { l.spans[id-1].End = time.Since(l.epoch).Seconds() }, id
}
