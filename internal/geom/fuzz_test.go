package geom

import (
	"fmt"
	"testing"
)

// Differential fuzzing of the scanline booleans and ring reconstruction
// against a raster oracle. Every input coordinate is an integer in
// [fuzzLo, fuzzLo+fuzzSpan), so a region is exactly the set of unit DBU
// cells [x,x+1)x[y,y+1) it covers: the oracle is a bitmap over that
// window, and area, XOR and round-trip must all match it exactly.

const (
	fuzzLo   = -8 // coordinates cross zero
	fuzzSpan = 24
	// fuzzMaxRects bounds the decoded input so one fuzz exec stays
	// cheap (the oracle is O(rects x cells)).
	fuzzMaxRects = 12
)

// raster is the oracle: one bit per unit cell of the fuzz window.
type raster [fuzzSpan][fuzzSpan]bool

func (r *raster) fill(rc Rect) {
	for y := rc.Y0; y < rc.Y1; y++ {
		for x := rc.X0; x < rc.X1; x++ {
			r[y-fuzzLo][x-fuzzLo] = true
		}
	}
}

func (r *raster) count() int64 {
	var n int64
	for y := range r {
		for x := range r[y] {
			if r[y][x] {
				n++
			}
		}
	}
	return n
}

func rasterOf(rs []Rect) raster {
	var r raster
	for _, rc := range rs {
		r.fill(rc)
	}
	return r
}

// decodeRects turns fuzz bytes into two rectangle sets: each 5-byte
// group is (operand, x0, y0, x1, y1). Corners are canonicalised by R, so
// zero-width and zero-height slivers are valid inputs.
func decodeRects(data []byte) (a, b []Rect) {
	c := func(v byte) Coord { return Coord(int(v)%fuzzSpan + fuzzLo) }
	for i := 0; i+5 <= len(data) && len(a)+len(b) < fuzzMaxRects; i += 5 {
		r := R(c(data[i+1]), c(data[i+2]), c(data[i+3]), c(data[i+4]))
		if data[i]&1 == 0 {
			a = append(a, r)
		} else {
			b = append(b, r)
		}
	}
	return a, b
}

// encodeRects is decodeRects' inverse for the seed corpus.
func encodeRects(a, b []Rect) []byte {
	var out []byte
	e := func(c Coord) byte { return byte(c - fuzzLo) }
	for op, rs := range [][]Rect{a, b} {
		for _, r := range rs {
			out = append(out, byte(op), e(r.X0), e(r.Y0), e(r.X1), e(r.Y1))
		}
	}
	return out
}

// geomEdgeCases seeds the corpus (and so runs on every go test): the
// shapes scanline booleans and boundary tracing historically get wrong.
var geomEdgeCases = []struct {
	name string
	a, b []Rect
}{
	{"empty_operands", nil, nil},
	{"zero_width_sliver", []Rect{R(0, 0, 0, 10)}, []Rect{R(0, 0, 4, 4)}},
	{"zero_height_sliver", []Rect{R(-3, 2, 9, 2)}, []Rect{R(-3, 0, 9, 5)}},
	{"unit_slivers", []Rect{R(0, 0, 1, 12)}, []Rect{R(0, 5, 12, 6)}},
	{"touching_corners", []Rect{R(0, 0, 4, 4)}, []Rect{R(4, 4, 8, 8)}},
	{"touching_corners_same_operand", []Rect{R(0, 0, 4, 4), R(4, 4, 8, 8)}, nil},
	{"checkerboard_2x2", []Rect{R(0, 0, 2, 2), R(2, 2, 4, 4)}, []Rect{R(2, 0, 4, 2), R(0, 2, 2, 4)}},
	{"shared_vertical_edge", []Rect{R(0, 0, 5, 6)}, []Rect{R(5, 0, 9, 6)}},
	{"shared_edge_partial", []Rect{R(0, 0, 5, 6)}, []Rect{R(5, 2, 9, 10)}},
	{"shared_horizontal_edge", []Rect{R(0, 0, 6, 5)}, []Rect{R(1, 5, 5, 9)}},
	{"identical", []Rect{R(-2, -2, 3, 7)}, []Rect{R(-2, -2, 3, 7)}},
	{"nested", []Rect{R(-8, -8, 15, 15)}, []Rect{R(0, 0, 3, 3)}},
	{"ring_with_hole", []Rect{R(0, 0, 9, 2), R(0, 7, 9, 9), R(0, 2, 2, 7), R(7, 2, 9, 7)}, []Rect{R(3, 3, 6, 6)}},
	{"ring_touching_hole_corner", []Rect{R(0, 0, 6, 2), R(0, 4, 6, 6), R(0, 2, 2, 4), R(4, 2, 6, 4)}, []Rect{R(2, 2, 3, 3)}},
	{"crossing_zero", []Rect{R(-5, -1, 5, 1)}, []Rect{R(-1, -5, 1, 5)}},
	{"overlapping_same_operand", []Rect{R(0, 0, 6, 6), R(3, 3, 9, 9), R(3, 3, 6, 6)}, []Rect{R(2, 2, 7, 7)}},
	{"comb", []Rect{R(0, 0, 1, 8), R(2, 0, 3, 8), R(4, 0, 5, 8), R(0, 0, 5, 1)}, []Rect{R(0, 4, 5, 5)}},
	{"window_extremes", []Rect{R(fuzzLo, fuzzLo, fuzzLo+fuzzSpan-1, fuzzLo+1)}, []Rect{R(fuzzLo+fuzzSpan-2, fuzzLo, fuzzLo+fuzzSpan-1, fuzzLo+fuzzSpan-1)}},
}

// checkRegion holds one boolean result to the oracle: the rectangles
// must be non-empty, disjoint and cover exactly the oracle's cells, and
// the ring reconstruction must round-trip to the same rectangles.
func checkRegion(t *testing.T, what string, got Region, want *raster) {
	t.Helper()
	var area int64
	for _, r := range got.Rects() {
		if r.Empty() {
			t.Fatalf("%s: empty rect %v in result", what, r)
		}
		area += r.Area()
	}
	if n := want.count(); area != n || got.Area() != n {
		t.Fatalf("%s: area %d (rect sum %d), oracle %d", what, got.Area(), area, n)
	}
	// Disjoint rects whose areas sum to the oracle count cover it
	// exactly iff every covered cell is an oracle cell.
	if r := rasterOf(got.Rects()); r != *want {
		t.Fatalf("%s: coverage differs from the oracle", what)
	}
	polys := got.Polygons()
	for _, p := range polys {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: reconstructed ring %v: %v", what, p, err)
		}
	}
	back := RegionFromPolygons(polys...)
	if fmt.Sprint(back.Rects()) != fmt.Sprint(got.Rects()) {
		t.Fatalf("%s: reconstruct round trip\n got %v\nwant %v", what, back.Rects(), got.Rects())
	}
}

func checkBooleans(t *testing.T, a, b []Rect) {
	ra, rb := rasterOf(a), rasterOf(b)
	ga, gb := RegionFromRects(a...), RegionFromRects(b...)
	checkRegion(t, "A", ga, &ra)
	checkRegion(t, "B", gb, &rb)
	pa, pb := ga.Polygons(), gb.Polygons()
	for _, op := range []struct {
		name   string
		region func(Region, Region) Region
		cell   func(x, y bool) bool
	}{
		{"or", Region.Union, func(x, y bool) bool { return x || y }},
		{"and", Region.Intersect, func(x, y bool) bool { return x && y }},
		{"sub", Region.Subtract, func(x, y bool) bool { return x && !y }},
		{"xor", Region.Xor, func(x, y bool) bool { return x != y }},
	} {
		var want raster
		for y := range want {
			for x := range want[y] {
				want[y][x] = op.cell(ra[y][x], rb[y][x])
			}
		}
		got := op.region(ga, gb)
		checkRegion(t, op.name, got, &want)
		// The ring path (nonzero winding over reconstructed rings, holes
		// included) must agree with the region path rect for rect.
		viaRings := BooleanPolygons(pa, pb, op.name)
		if fmt.Sprint(viaRings.Rects()) != fmt.Sprint(got.Rects()) {
			t.Fatalf("%s: BooleanPolygons %v, Region %v", op.name, viaRings.Rects(), got.Rects())
		}
	}
}

func FuzzRegionBooleans(f *testing.F) {
	for _, c := range geomEdgeCases {
		f.Add(encodeRects(c.a, c.b))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := decodeRects(data)
		checkBooleans(t, a, b)
		checkBooleans(t, b, a) // sub is the asymmetric one
	})
}
