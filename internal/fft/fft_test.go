package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 1024} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -4, 3, 6, 1000} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 1000: 1024, 1024: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestForwardKnownDC(t *testing.T) {
	x := []complex128{1, 1, 1, 1}
	if err := Forward(x); err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(x[0]-4) > 1e-12 {
		t.Errorf("DC bin = %v", x[0])
	}
	for i := 1; i < 4; i++ {
		if cmplx.Abs(x[i]) > 1e-12 {
			t.Errorf("bin %d = %v", i, x[i])
		}
	}
}

func TestForwardKnownImpulse(t *testing.T) {
	// An impulse transforms to an all-ones spectrum.
	x := make([]complex128, 8)
	x[0] = 1
	if err := Forward(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("bin %d = %v", i, v)
		}
	}
}

func TestForwardSingleTone(t *testing.T) {
	n := 16
	k := 3
	x := make([]complex128, n)
	for i := range x {
		ang := 2 * math.Pi * float64(k*i) / float64(n)
		x[i] = cmplx.Exp(complex(0, ang))
	}
	if err := Forward(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		want := complex(0, 0)
		if i == k {
			want = complex(float64(n), 0)
		}
		if cmplx.Abs(v-want) > 1e-9 {
			t.Errorf("bin %d = %v, want %v", i, v, want)
		}
	}
}

func TestNonPow2Rejected(t *testing.T) {
	if err := Forward(make([]complex128, 3)); err == nil {
		t.Error("length 3 should be rejected")
	}
	g := &Grid{W: 3, H: 4, Data: make([]complex128, 12)}
	if err := g.Forward2D(); err == nil {
		t.Error("3x4 grid should be rejected")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (2 + rng.Intn(7)) // 4..512
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = x[i]
		}
		if Forward(x) != nil || Inverse(x) != nil {
			return false
		}
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickParseval(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64
		x := make([]complex128, n)
		var timeE float64
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			timeE += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		}
		if Forward(x) != nil {
			return false
		}
		var freqE float64
		for _, v := range x {
			freqE += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(freqE/float64(n)-timeE) < 1e-7*(1+timeE)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 32
		a := make([]complex128, n)
		b := make([]complex128, n)
		sum := make([]complex128, n)
		for i := range a {
			a[i] = complex(rng.NormFloat64(), 0)
			b[i] = complex(rng.NormFloat64(), 0)
			sum[i] = a[i] + 2*b[i]
		}
		_ = Forward(a)
		_ = Forward(b)
		_ = Forward(sum)
		for i := range sum {
			if cmplx.Abs(sum[i]-(a[i]+2*b[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGrid2DRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := NewGrid(16, 8)
	orig := make([]complex128, len(g.Data))
	for i := range g.Data {
		g.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		orig[i] = g.Data[i]
	}
	if err := g.Forward2D(); err != nil {
		t.Fatal(err)
	}
	if err := g.Inverse2D(); err != nil {
		t.Fatal(err)
	}
	for i := range g.Data {
		if cmplx.Abs(g.Data[i]-orig[i]) > 1e-9 {
			t.Fatalf("2D round trip diverged at %d", i)
		}
	}
}

func TestGrid2DSeparableTone(t *testing.T) {
	// A 2-D plane wave lands in exactly one bin.
	w, h := 16, 16
	kx, ky := 2, 5
	g := NewGrid(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			ang := 2 * math.Pi * (float64(kx*x)/float64(w) + float64(ky*y)/float64(h))
			g.Set(x, y, cmplx.Exp(complex(0, ang)))
		}
	}
	if err := g.Forward2D(); err != nil {
		t.Fatal(err)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			want := complex(0, 0)
			if x == kx && y == ky {
				want = complex(float64(w*h), 0)
			}
			if cmplx.Abs(g.At(x, y)-want) > 1e-8 {
				t.Fatalf("bin (%d,%d) = %v, want %v", x, y, g.At(x, y), want)
			}
		}
	}
}

func TestLongTransformMatchesDirectDFT(t *testing.T) {
	// The scalar path reads precomputed twiddle tables instead of
	// accumulating w *= wStep across the butterfly, so even a long
	// transform must track a direct DFT to near machine precision.
	n := 4096
	rng := rand.New(rand.NewSource(7))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	want := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k*j%n) / float64(n)
			sum += x[j] * complex(math.Cos(ang), math.Sin(ang))
		}
		want[k] = sum
	}
	if err := Forward(x); err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for k := range x {
		if d := cmplx.Abs(x[k] - want[k]); d > worst {
			worst = d
		}
	}
	if worst > 1e-9 {
		t.Errorf("size-%d transform deviates from direct DFT by %.3g, want < 1e-9", n, worst)
	}
}

func TestPlan2DMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, workers := range []int{1, 4} {
		g := NewGrid(64, 32)
		for i := range g.Data {
			g.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		ref := g.Clone()
		plan, err := NewPlan2D(64, 32)
		if err != nil {
			t.Fatal(err)
		}
		plan.Workers = workers
		if err := plan.Forward2DP(g); err != nil {
			t.Fatal(err)
		}
		if err := ref.Forward2D(); err != nil {
			t.Fatal(err)
		}
		for i := range g.Data {
			if cmplx.Abs(g.Data[i]-ref.Data[i]) > 1e-12 {
				t.Fatalf("workers=%d: planned forward diverges at %d", workers, i)
			}
		}
		if err := plan.Inverse2DP(g); err != nil {
			t.Fatal(err)
		}
		if err := ref.Inverse2D(); err != nil {
			t.Fatal(err)
		}
		for i := range g.Data {
			if cmplx.Abs(g.Data[i]-ref.Data[i]) > 1e-12 {
				t.Fatalf("workers=%d: planned inverse diverges at %d", workers, i)
			}
		}
	}
}

func TestPlan2DDeterministicAcrossWorkers(t *testing.T) {
	// Parallel fan-out must not change a single bit: each row/column is
	// independent and the inverse scaling is one uniform pass.
	mk := func() *Grid {
		g := NewGrid(32, 64)
		for i := range g.Data {
			g.Data[i] = complex(float64(i%13)-6, float64(i%7)-3)
		}
		return g
	}
	a, b := mk(), mk()
	pa, _ := NewPlan2D(32, 64)
	pa.Workers = 1
	pb, _ := NewPlan2D(32, 64)
	pb.Workers = 8
	if err := pa.Inverse2DP(a); err != nil {
		t.Fatal(err)
	}
	if err := pb.Inverse2DP(b); err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("worker count changed bits at %d: %v vs %v", i, a.Data[i], b.Data[i])
		}
	}
}

func TestPlan2DRejectsMismatch(t *testing.T) {
	if _, err := NewPlan2D(3, 4); err == nil {
		t.Error("non-pow2 plan should be rejected")
	}
	plan, err := NewPlan2D(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Forward2DP(NewGrid(16, 8)); err == nil {
		t.Error("mismatched grid should be rejected")
	}
}

func TestGridPoolReturnsZeroed(t *testing.T) {
	g := GetGrid(8, 8)
	for i := range g.Data {
		g.Data[i] = complex(1, 2)
	}
	PutGrid(g)
	h := GetGrid(8, 8)
	defer PutGrid(h)
	for i, v := range h.Data {
		if v != 0 {
			t.Fatalf("pooled grid not zeroed at %d: %v", i, v)
		}
	}
	if h.W != 8 || h.H != 8 {
		t.Fatalf("pooled grid geometry %dx%d", h.W, h.H)
	}
}

func TestGridAtSetClone(t *testing.T) {
	g := NewGrid(4, 4)
	g.Set(1, 2, 3+4i)
	if g.At(1, 2) != 3+4i {
		t.Error("At/Set mismatch")
	}
	c := g.Clone()
	c.Set(1, 2, 0)
	if g.At(1, 2) != 3+4i {
		t.Error("Clone must not share storage")
	}
}

// TestInverseBandMatchesFull: for spectra supported on a known row
// set, the band-compact inverse must be bit-identical to Inverse2DP on
// the zero-filled full grid, serial and parallel, on square and
// non-square grids, including bands that reach the rows beside Nyquist.
func TestInverseBandMatchesFull(t *testing.T) {
	cases := []struct {
		w, h int
		rows []int
	}{
		{64, 64, []int{0, 1, 2, 3, 61, 62, 63}},
		{64, 32, []int{0, 1, 2, 3, 29, 30, 31}},
		{32, 128, []int{0, 5, 63, 65, 127}}, // beside Nyquist (64)
		{16, 16, []int{0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15}},
		{2, 8, []int{1, 3, 7}}, // partial column block
	}
	rng := rand.New(rand.NewSource(11))
	for _, c := range cases {
		full := NewGrid(c.w, c.h)
		block := NewGrid(c.w, len(c.rows))
		for i, y := range c.rows {
			for x := 0; x < c.w; x++ {
				v := complex(rng.NormFloat64(), rng.NormFloat64())
				full.Data[y*c.w+x] = v
				block.Data[i*c.w+BitReverse(x, c.w)] = v
			}
		}
		p, err := NewPlan2D(c.w, c.h)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Inverse2DP(full); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			p.Workers = workers
			b := block.Clone()
			got := make([]complex128, c.w*c.h)
			var emitted atomic.Int64
			before := mTransforms.Value()
			err := p.InverseBand(b, c.rows, func(x0 int, cols []complex128) {
				nb := len(cols) / c.h
				emitted.Add(int64(nb))
				for j := 0; j < nb; j++ {
					for y := 0; y < c.h; y++ {
						got[y*c.w+x0+j] = cols[j*c.h+y]
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if n := mTransforms.Value() - before; n != 1 {
				t.Fatalf("%dx%d workers=%d: counted %d transforms, want 1", c.w, c.h, workers, n)
			}
			if emitted.Load() != int64(c.w) {
				t.Fatalf("%dx%d workers=%d: emitted %d columns, want %d", c.w, c.h, workers, emitted.Load(), c.w)
			}
			for i := range got {
				if got[i] != full.Data[i] {
					t.Fatalf("%dx%d workers=%d: bit mismatch at %d: %v vs %v",
						c.w, c.h, workers, i, got[i], full.Data[i])
				}
			}
		}
	}
}

// TestInverseBandRejectsBadBands: rows outside the plan, unsorted or
// repeated rows, and a block that does not match the row list are
// errors, not silent garbage.
func TestInverseBandRejectsBadBands(t *testing.T) {
	p, err := NewPlan2D(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	emit := func(int, []complex128) {}
	for _, rows := range [][]int{{8}, {-1}, {3, 2}, {2, 2}} {
		if err := p.InverseBand(NewGrid(8, len(rows)), rows, emit); err == nil {
			t.Errorf("rows %v accepted", rows)
		}
	}
	if err := p.InverseBand(NewGrid(8, 3), []int{0, 1}, emit); err == nil {
		t.Error("block height != len(rows) accepted")
	}
	if err := p.InverseBand(NewGrid(4, 2), []int{0, 1}, emit); err == nil {
		t.Error("block width != plan width accepted")
	}
}

// TestForward2DPColsMatchesFull: listed output columns of the pruned
// forward transform must match the full transform bit-for-bit.
func TestForward2DPColsMatchesFull(t *testing.T) {
	const w, h = 32, 64
	rng := rand.New(rand.NewSource(12))
	full := NewGrid(w, h)
	for i := range full.Data {
		full.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	pruned := NewGrid(w, h)
	copy(pruned.Data, full.Data)
	p, err := NewPlan2D(w, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Forward2DP(full); err != nil {
		t.Fatal(err)
	}
	cols := []int{0, 1, 5, 30, 31}
	if err := p.Forward2DPCols(pruned, cols); err != nil {
		t.Fatal(err)
	}
	for _, x := range cols {
		for y := 0; y < h; y++ {
			if full.Data[y*w+x] != pruned.Data[y*w+x] {
				t.Fatalf("bit mismatch at col %d row %d", x, y)
			}
		}
	}
	if err := p.Forward2DPCols(pruned, []int{-1}); err == nil {
		t.Fatal("out-of-range column accepted")
	}
}
