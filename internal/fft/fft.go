// Package fft provides the radix-2 complex FFT the aerial-image
// simulator is built on: 1-D and 2-D transforms over power-of-two sizes,
// with the unitary-pair convention Forward (no scaling) / Inverse (1/N
// scaling) so Inverse(Forward(x)) == x.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// NextPow2 returns the smallest power of two >= n (n must be positive).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// Forward computes the in-place DFT of x. len(x) must be a power of two.
func Forward(x []complex128) error { return transform(x, false) }

// Inverse computes the in-place inverse DFT of x, scaled by 1/N. The
// scaling is folded into the final butterfly stage (Plan2D folds it
// into its column pass the same way), so no separate O(N) sweep runs;
// 1/N is an exact power of two, making the fold bit-identical to
// scaling afterwards.
func Inverse(x []complex128) error {
	n := len(x)
	if !IsPow2(n) {
		return fmt.Errorf("fft: length %d is not a power of two", n)
	}
	if n == 1 {
		return nil
	}
	mKernelDispatch.Inc()
	transformTs(x, tablesFor(n, true), 1/float64(n))
	return nil
}

// twiddleCache memoizes per-size twiddle tables: for size n the table
// holds exp(-2*pi*i*k/n) for k < n/2, which covers every butterfly stage
// of a size-n transform (stage size s reads the table at stride n/s).
var twiddleCache sync.Map // int -> []complex128

// twiddles returns the forward twiddle table for size n, building and
// caching it on first use.
func twiddles(n int) []complex128 {
	if v, ok := twiddleCache.Load(n); ok {
		return v.([]complex128)
	}
	tw := make([]complex128, n/2)
	for k := range tw {
		ang := -2 * math.Pi * float64(k) / float64(n)
		tw[k] = complex(math.Cos(ang), math.Sin(ang))
	}
	v, _ := twiddleCache.LoadOrStore(n, tw)
	return v.([]complex128)
}

// twTables is the butterfly schedule for one transform size and
// direction: the stage-2 twiddle plus one sequential twiddle vector per
// remaining stage. Every entry is copied (or exactly conjugated, for
// the inverse) from the base twiddles table, so the butterflies consume
// the same values as a strided walk over that table — the layout only
// exists to make the hot loop read its twiddles contiguously and
// branch-free.
type twTables struct {
	// w1 is tw[n/4], the single non-unit twiddle of the size-4 stage.
	w1 complex128
	// stages[i] holds the size-(8<<i) stage's twiddles: stages[i][k] =
	// tw[k * n/size] for k < size/2.
	stages [][]complex128
	// rev is the bit-reversal swap list for the size.
	rev [][2]int32
}

// twTableCache memoizes twTables per (size, inverse).
var twTableCache sync.Map // [2]int -> *twTables

// revCache memoizes the bit-reversal swap list per size: the (i, j)
// pairs with i < j = reverse(i), precomputed so the permutation loop
// neither recomputes reversals nor visits fixed points.
var revCache sync.Map // int -> [][2]int32

func revPairs(n int) [][2]int32 {
	if v, ok := revCache.Load(n); ok {
		return v.([][2]int32)
	}
	var pairs [][2]int32
	for i := 0; i < n; i++ {
		if j := BitReverse(i, n); j > i {
			pairs = append(pairs, [2]int32{int32(i), int32(j)})
		}
	}
	v, _ := revCache.LoadOrStore(n, pairs)
	return v.([][2]int32)
}

// BitReverse returns i with its log2(n) low bits reversed: the
// position a transform's bit-reversal permutation moves element i to.
// n must be a power of two and 0 <= i < n.
func BitReverse(i, n int) int {
	return int(bits.Reverse(uint(i)) >> (bits.UintSize - uint(bits.Len(uint(n-1)))))
}

// tablesFor returns the butterfly schedule for size n, direction
// invert, building and caching it on first use.
func tablesFor(n int, invert bool) *twTables {
	key := [2]int{n, 0}
	if invert {
		key[1] = 1
	}
	if v, ok := twTableCache.Load(key); ok {
		return v.(*twTables)
	}
	tw := twiddles(n)
	conj := func(w complex128) complex128 {
		if invert {
			return complex(real(w), -imag(w))
		}
		return w
	}
	t := &twTables{rev: revPairs(n)}
	if n >= 4 {
		t.w1 = conj(tw[n/4])
	}
	for size := 8; size <= n; size <<= 1 {
		half := size / 2
		stride := n / size
		st := make([]complex128, half)
		for k := 0; k < half; k++ {
			st[k] = conj(tw[k*stride])
		}
		t.stages = append(t.stages, st)
	}
	v, _ := twTableCache.LoadOrStore(key, t)
	return v.(*twTables)
}

func transform(x []complex128, invert bool) error {
	n := len(x)
	if !IsPow2(n) {
		return fmt.Errorf("fft: length %d is not a power of two", n)
	}
	if n == 1 {
		return nil
	}
	mKernelDispatch.Inc()
	transformT(x, tablesFor(n, invert))
	return nil
}

// transformT is the in-place radix-2 butterfly pass over a power-of-two
// slice using the precomputed schedule for len(x). Every twiddle is
// read directly from a table rather than accumulated by repeated
// multiplication, so rounding error stays at table precision regardless
// of transform length. The stage loops run through the dispatched
// butterfly kernels (kernel.go): the fused size-2/4 pass, then one
// sequential-twiddle kernel call per remaining stage.
func transformT(x []complex128, t *twTables) { transformTs(x, t, 1) }

// transformTs is transformT with a uniform output scaling folded into
// the final butterfly stage (scale 1 disables it). Folding computes
// exactly what a separate scaling sweep over the stored sums would, so
// results are bit-identical to transform-then-scale while saving the
// extra O(N) pass; inverse transforms pass their exact power-of-two
// 1/N here. Transforms too short to reach a foldable stage (n < 8)
// scale in a trailing loop instead.
func transformTs(x []complex128, t *twTables, scale float64) {
	// Bit-reversal permutation via the precomputed swap list.
	for _, p := range t.rev {
		i, j := p[0], p[1]
		x[i], x[j] = x[j], x[i]
	}
	butterflies(x, t, scale)
}

// butterflies is transformTs without the bit-reversal permutation: x
// must already hold its input in bit-reversed order (see BitReverse).
// Callers that place their input there directly skip the swap loop;
// a permutation is exact, so the result is bit-identical.
func butterflies(x []complex128, t *twTables, scale float64) {
	n := len(x)
	if n < 8 {
		if n >= 4 {
			stage24(x, t.w1)
		} else if n == 2 {
			x[0], x[1] = x[0]+x[1], x[0]-x[1]
		}
		if scale != 1 {
			for i := range x {
				x[i] = complex(real(x[i])*scale, imag(x[i])*scale)
			}
		}
		return
	}
	// Fused stages of size 2 and 4, then the remaining stages with
	// their per-stage twiddle vectors; the last stage absorbs the
	// scaling when one was requested.
	stage24(x, t.w1)
	size := 8
	last := len(t.stages) - 1
	for i, wt := range t.stages {
		if i == last && scale != 1 {
			stageScale(x, size, wt, scale)
		} else {
			stage(x, size, wt)
		}
		size <<= 1
	}
}

// Grid is a 2-D complex field stored row-major, sized W x H (both powers
// of two for transforms).
type Grid struct {
	W, H int
	Data []complex128
}

// NewGrid allocates a zeroed W x H grid.
func NewGrid(w, h int) *Grid {
	return &Grid{W: w, H: h, Data: make([]complex128, w*h)}
}

// At returns the value at (x, y).
func (g *Grid) At(x, y int) complex128 { return g.Data[y*g.W+x] }

// Set stores v at (x, y).
func (g *Grid) Set(x, y int, v complex128) { g.Data[y*g.W+x] = v }

// Clone returns a deep copy.
func (g *Grid) Clone() *Grid {
	out := NewGrid(g.W, g.H)
	copy(out.Data, g.Data)
	return out
}

// Forward2D computes the in-place 2-D DFT (rows then columns).
func (g *Grid) Forward2D() error { return g.transform2D(false) }

// Inverse2D computes the in-place 2-D inverse DFT with 1/(W*H) scaling.
func (g *Grid) Inverse2D() error { return g.transform2D(true) }

func (g *Grid) transform2D(invert bool) error {
	if !IsPow2(g.W) || !IsPow2(g.H) {
		return fmt.Errorf("fft: grid %dx%d not power-of-two", g.W, g.H)
	}
	do := Forward
	if invert {
		do = Inverse
	}
	// Rows.
	for y := 0; y < g.H; y++ {
		if err := do(g.Data[y*g.W : (y+1)*g.W]); err != nil {
			return err
		}
	}
	// Columns via a scratch vector.
	col := make([]complex128, g.H)
	for x := 0; x < g.W; x++ {
		for y := 0; y < g.H; y++ {
			col[y] = g.Data[y*g.W+x]
		}
		if err := do(col); err != nil {
			return err
		}
		for y := 0; y < g.H; y++ {
			g.Data[y*g.W+x] = col[y]
		}
	}
	return nil
}
