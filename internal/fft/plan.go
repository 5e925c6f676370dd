package fft

import (
	"fmt"
	"runtime"
	"sync"
)

// Plan2D is a reusable 2-D transform plan for one grid geometry: the
// twiddle tables for both axes are resolved once, and the row and column
// passes fan out across Workers goroutines. Forward2DP/Inverse2DP
// produce bit-identical results at any worker count (each row/column is
// an independent transform and the inverse scaling is a single uniform
// pass), so a parallel plan can stand in for the serial Grid transforms
// anywhere. A Plan2D is safe for concurrent use.
type Plan2D struct {
	W, H int
	// Workers bounds the goroutine fan-out per pass; values <= 1 run the
	// pass inline.
	Workers    int
	fwdW, fwdH *twTables
	invW, invH *twTables
}

// NewPlan2D builds a plan for W x H grids with the default worker count
// (GOMAXPROCS).
func NewPlan2D(w, h int) (*Plan2D, error) {
	if !IsPow2(w) || !IsPow2(h) {
		return nil, fmt.Errorf("fft: plan %dx%d not power-of-two", w, h)
	}
	mPlansBuilt.Inc()
	return &Plan2D{
		W: w, H: h,
		Workers: runtime.GOMAXPROCS(0),
		fwdW:    tablesFor(w, false),
		fwdH:    tablesFor(h, false),
		invW:    tablesFor(w, true),
		invH:    tablesFor(h, true),
	}, nil
}

// Forward2DP computes the in-place 2-D DFT of g (rows then columns),
// parallel over rows/columns up to p.Workers.
func (p *Plan2D) Forward2DP(g *Grid) error { return p.apply(g, false, nil) }

// Inverse2DP computes the in-place 2-D inverse DFT of g with 1/(W*H)
// scaling, parallel over rows/columns up to p.Workers.
func (p *Plan2D) Inverse2DP(g *Grid) error { return p.apply(g, true, nil) }

// Forward2DPCols computes the forward DFT restricted to the listed
// output columns: the row pass runs in full, the column pass only on
// the listed columns. Listed columns match Forward2DP bit-for-bit;
// every other column is left in a partially transformed state and must
// not be read. Use when only a known frequency band is consumed.
func (p *Plan2D) Forward2DPCols(g *Grid, cols []int) error { return p.apply(g, false, cols) }

func (p *Plan2D) apply(g *Grid, invert bool, cols []int) error {
	if g.W != p.W || g.H != p.H {
		return fmt.Errorf("fft: plan %dx%d applied to grid %dx%d", p.W, p.H, g.W, g.H)
	}
	mTransforms.Inc()
	mKernelDispatch.Inc()
	w, h := p.W, p.H
	for _, x := range cols {
		if x < 0 || x >= w {
			return fmt.Errorf("fft: column %d outside plan width %d", x, w)
		}
	}
	twW, twH := p.fwdW, p.fwdH
	if invert {
		twW, twH = p.invW, p.invH
	}
	// Rows.
	parallelRange(h, p.Workers, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			transformT(g.Data[y*w:(y+1)*w], twW)
		}
	})
	// Columns, gathered into pooled scratch in blocks: four adjacent
	// complex128 columns share each 64-byte cache line, so walking the
	// grid once per 4-column block instead of once per column cuts the
	// strided gather/scatter traffic 4x. Each column is still an
	// independent contiguous transform.
	// The inverse's 1/N scaling is folded into each column transform's
	// final butterfly stage (transformTs): every output cell passes
	// through it exactly once (inverse passes always run the full
	// column set), and scaling inside the stage computes the same
	// expression the old per-element scatter multiply did, so the
	// scatter below is a plain store on both directions.
	cscale := 1.0
	if invert {
		cscale = 1 / float64(w*h)
	}
	colPass := func(x0, x1 int, pick []int) {
		buf := getScratch(colBlock * h)
		b0, b1 := buf[0*h:1*h], buf[1*h:2*h]
		b2, b3 := buf[2*h:3*h], buf[3*h:4*h]
		for i := x0; i < x1; i += colBlock {
			nb := x1 - i
			if nb > colBlock {
				nb = colBlock
			}
			if pick == nil && nb == colBlock {
				// Contiguous full block: the four columns are adjacent, so
				// gather and scatter move whole 4-wide row slices with no
				// index indirection.
				for y := 0; y < h; y++ {
					r4 := g.Data[y*w+i : y*w+i+4 : y*w+i+4]
					b0[y], b1[y], b2[y], b3[y] = r4[0], r4[1], r4[2], r4[3]
				}
				transformTs(b0, twH, cscale)
				transformTs(b1, twH, cscale)
				transformTs(b2, twH, cscale)
				transformTs(b3, twH, cscale)
				for y := 0; y < h; y++ {
					r4 := g.Data[y*w+i : y*w+i+4 : y*w+i+4]
					r4[0], r4[1], r4[2], r4[3] = b0[y], b1[y], b2[y], b3[y]
				}
				continue
			}
			var xs [colBlock]int
			for j := 0; j < nb; j++ {
				if pick != nil {
					xs[j] = pick[i+j]
				} else {
					xs[j] = i + j
				}
			}
			for y := 0; y < h; y++ {
				row := g.Data[y*w:]
				for j := 0; j < nb; j++ {
					buf[j*h+y] = row[xs[j]]
				}
			}
			for j := 0; j < nb; j++ {
				transformTs(buf[j*h:(j+1)*h], twH, cscale)
			}
			for y := 0; y < h; y++ {
				row := g.Data[y*w:]
				for j := 0; j < nb; j++ {
					row[xs[j]] = buf[j*h+y]
				}
			}
		}
		putScratch(buf)
	}
	if cols == nil {
		parallelRange(w, p.Workers, func(x0, x1 int) { colPass(x0, x1, nil) })
	} else {
		parallelRange(len(cols), p.Workers, func(i0, i1 int) { colPass(i0, i1, cols) })
	}
	return nil
}

// colBlock is the column pass's block width: four adjacent complex128
// columns share each 64-byte cache line.
const colBlock = 4

// InverseBand computes the 2-D inverse DFT, with 1/(W*H) scaling, of a
// W x H spectrum that is zero outside the listed rows, without ever
// holding the full grid. block is the band alone: a W x len(rows) grid
// whose row i is spectrum row rows[i], each element stored at its
// bit-reversed column (BitReverse(x, W)); rows must ascend. block is
// overwritten by its row transforms.
//
// The column pass runs in blocks of up to four adjacent columns and
// hands each finished block to emit: output column x0+j is
// cols[j*H:(j+1)*H], in natural row order. emit runs concurrently for
// disjoint blocks when the plan has several workers, and must not
// retain cols. Every output value goes through the same butterflies as
// Inverse2DP on the zero-filled full grid (all-zero rows stay zero, and
// the bit-reversal permutation is folded into where the inputs are
// placed), so the results are bit-identical to it. It counts as one
// transform.
func (p *Plan2D) InverseBand(block *Grid, rows []int, emit func(x0 int, cols []complex128)) error {
	w, h := p.W, p.H
	if block.W != w || block.H != len(rows) {
		return fmt.Errorf("fft: band block %dx%d does not hold %d rows of plan width %d",
			block.W, block.H, len(rows), w)
	}
	// rev[i] is where row rows[i] lands in a bit-reversed column.
	rev := make([]int, len(rows))
	for i, y := range rows {
		if y < 0 || y >= h || (i > 0 && y <= rows[i-1]) {
			return fmt.Errorf("fft: band rows must ascend within plan height %d, got %d at %d", h, y, i)
		}
		rev[i] = BitReverse(y, h)
	}
	mTransforms.Inc()
	mKernelDispatch.Inc()
	parallelRange(len(rows), p.Workers, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			butterflies(block.Data[i*w:(i+1)*w], p.invW, 1)
		}
	})
	scale := 1 / float64(w*h)
	parallelRange((w+colBlock-1)/colBlock, p.Workers, func(b0, b1 int) {
		buf := getScratch(colBlock * h)
		defer putScratch(buf)
		for b := b0; b < b1; b++ {
			x0 := b * colBlock
			nb := min(colBlock, w-x0)
			cols := buf[:nb*h]
			clear(cols)
			for i, y := range rev {
				for j, v := range block.Data[i*w+x0 : i*w+x0+nb] {
					cols[j*h+y] = v
				}
			}
			for j := 0; j < nb; j++ {
				butterflies(cols[j*h:(j+1)*h], p.invH, scale)
			}
			emit(x0, cols)
		}
	})
	return nil
}

// parallelRange splits [0, n) into contiguous chunks across at most
// workers goroutines. With one worker (or a tiny n) it runs inline.
func parallelRange(n, workers int, fn func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// scratchPools hands out per-length complex scratch vectors (the column
// buffers of the 2-D passes).
var scratchPools sync.Map // int -> *sync.Pool

func getScratch(n int) []complex128 {
	p, ok := scratchPools.Load(n)
	if !ok {
		p, _ = scratchPools.LoadOrStore(n, &sync.Pool{New: func() any {
			return make([]complex128, n)
		}})
	}
	return p.(*sync.Pool).Get().([]complex128)
}

func putScratch(v []complex128) {
	if p, ok := scratchPools.Load(len(v)); ok {
		p.(*sync.Pool).Put(v) //nolint:staticcheck // slice header boxing is fine here
	}
}

// gridPools recycles Grid storage per geometry so hot simulation loops
// stop allocating multi-megabyte fields on every call.
var gridPools sync.Map // [2]int -> *sync.Pool

// GetGrid returns a zeroed W x H grid from the pool.
func GetGrid(w, h int) *Grid {
	key := [2]int{w, h}
	mGridGets.Inc()
	p, ok := gridPools.Load(key)
	if !ok {
		p, _ = gridPools.LoadOrStore(key, &sync.Pool{New: func() any {
			mGridAllocs.Inc()
			return NewGrid(w, h)
		}})
	}
	g := p.(*sync.Pool).Get().(*Grid)
	for i := range g.Data {
		g.Data[i] = 0
	}
	return g
}

// PutGrid returns a grid obtained from GetGrid to its pool. The caller
// must not retain g.Data afterwards.
func PutGrid(g *Grid) {
	if g == nil {
		return
	}
	if p, ok := gridPools.Load([2]int{g.W, g.H}); ok {
		p.(*sync.Pool).Put(g)
	}
}
