package optics

import (
	"math"
	"testing"

	"goopc/internal/geom"
)

func fastSettings() Settings {
	s := Default()
	s.SourceSteps = 5
	s.GuardNM = 1200
	return s
}

func TestSettingsValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default settings invalid: %v", err)
	}
	if err := DefaultAnnular().Validate(); err != nil {
		t.Fatalf("annular settings invalid: %v", err)
	}
	bad := Default()
	bad.NA = 1.2
	if err := bad.Validate(); err == nil {
		t.Error("NA > 1 should fail")
	}
	bad = Default()
	bad.PixelNM = 200
	if err := bad.Validate(); err == nil {
		t.Error("pixel above Nyquist should fail")
	}
	bad = DefaultAnnular()
	bad.SigmaInner = 0.9
	if err := bad.Validate(); err == nil {
		t.Error("inner > outer should fail")
	}
	bad = Default()
	bad.SourceSteps = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero source steps should fail")
	}
}

func TestResolutionScales(t *testing.T) {
	s := Default()
	res := s.RayleighResolution()
	if res < 200 || res > 250 {
		t.Errorf("Rayleigh resolution = %.1f nm, expected ~222", res)
	}
	dof := s.DepthOfFocus()
	if dof < 200 || dof > 350 {
		t.Errorf("DOF scale = %.1f nm, expected ~268", dof)
	}
}

func TestSourceSampling(t *testing.T) {
	s := Default()
	pts := sampleSource(s)
	if len(pts) == 0 {
		t.Fatal("no source points")
	}
	var sum float64
	for _, p := range pts {
		sum += p.Weight
		if math.Hypot(p.SX, p.SY) > s.SigmaOuter+1e-9 {
			t.Errorf("point (%f,%f) outside sigma", p.SX, p.SY)
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("weights sum to %f", sum)
	}
	// Annular excludes the center.
	ann := DefaultAnnular()
	ann.SourceSteps = 9
	for _, p := range sampleSource(ann) {
		r := math.Hypot(p.SX, p.SY)
		if r < ann.SigmaInner-1e-9 {
			t.Errorf("annular point at r=%f inside inner sigma", r)
		}
	}
	// Coherent limit.
	coh := Default()
	coh.SourceSteps = 1
	if pts := sampleSource(coh); len(pts) != 1 || pts[0].SX != 0 {
		t.Errorf("coherent sampling = %v", pts)
	}
	// Quadrupole points live near the diagonals.
	quad := Default()
	quad.Shape = Quadrupole
	quad.SigmaOuter = 0.8
	quad.SigmaInner = 0.15
	quad.SourceSteps = 11
	qp := sampleSource(quad)
	if len(qp) == 0 {
		t.Fatal("no quadrupole points")
	}
	for _, p := range qp {
		if math.Abs(math.Abs(p.SX)-math.Abs(p.SY)) > 2*0.15+1e-9 {
			t.Errorf("quadrupole point (%f,%f) off diagonal", p.SX, p.SY)
		}
	}
}

func TestFrameFor(t *testing.T) {
	w := geom.R(0, 0, 1000, 1000)
	f := FrameFor(w, 16, 1000)
	if f.W < 128 || f.H < 128 {
		t.Errorf("frame too small: %dx%d", f.W, f.H)
	}
	if f.W&(f.W-1) != 0 || f.H&(f.H-1) != 0 {
		t.Error("frame dims must be powers of two")
	}
	// The window center should map to the frame center.
	cx := f.OriginX + f.PixelNM*float64(f.W-1)/2
	if math.Abs(cx-500) > 1e-9 {
		t.Errorf("frame center x = %f", cx)
	}
}

func TestRasterizeCoverage(t *testing.T) {
	f := Frame{W: 64, H: 64, PixelNM: 10, OriginX: 0, OriginY: 0}
	g := rasterize([]geom.Polygon{geom.R(95, 95, 203, 205).Polygon()}, f)
	// Total coverage equals area / pixel area.
	var sum float64
	for _, v := range g.Data {
		sum += real(v)
	}
	want := 108.0 * 110.0 / 100.0
	if math.Abs(sum-want) > 1e-9 {
		t.Errorf("coverage sum = %f, want %f", sum, want)
	}
	// Interior pixel fully covered.
	if v := real(g.At(15, 15)); math.Abs(v-1) > 1e-12 {
		t.Errorf("interior pixel = %f", v)
	}
	// Pixel centered at 90 covers [85,95): zero coverage.
	if v := real(g.At(9, 15)); v != 0 {
		t.Errorf("outside pixel = %f", v)
	}
	// Partial edge pixel: pixel 20 covers [195,205); the rect ends at
	// 203, so 8/10 of the pixel is covered.
	if v := real(g.At(20, 15)); math.Abs(v-0.8) > 1e-12 {
		t.Errorf("right edge pixel = %f, want 0.8", v)
	}
}

func TestRasterizeOverlapClamps(t *testing.T) {
	f := Frame{W: 32, H: 32, PixelNM: 10, OriginX: 0, OriginY: 0}
	// Two identical rects: union resolves, max transmission 1.
	p := geom.R(50, 50, 150, 150).Polygon()
	g := rasterize([]geom.Polygon{p, p}, f)
	for _, v := range g.Data {
		if real(v) > 1+1e-12 {
			t.Fatalf("transmission %f exceeds 1", real(v))
		}
	}
}

func TestClearFieldNormalization(t *testing.T) {
	sim, err := New(fastSettings())
	if err != nil {
		t.Fatal(err)
	}
	// Bright field, no chrome drawn: clear field intensity ~1.
	window := geom.R(-200, -200, 200, 200)
	im, err := sim.Aerial(nil, window)
	if err != nil {
		t.Fatal(err)
	}
	if v := im.At(0, 0); math.Abs(v-1) > 0.02 {
		t.Errorf("clear field intensity = %f, want ~1", v)
	}
	// A huge chrome plate: dark, ~0.
	plate := geom.R(-4000, -4000, 4000, 4000).Polygon()
	im2, err := sim.Aerial([]geom.Polygon{plate}, window)
	if err != nil {
		t.Fatal(err)
	}
	if v := im2.At(0, 0); v > 0.02 {
		t.Errorf("under-chrome intensity = %f", v)
	}
	// Dark-field tone: no openings -> dark.
	s := fastSettings()
	s.MaskTone = DarkField
	simDF, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	im3, err := simDF.Aerial(nil, window)
	if err != nil {
		t.Fatal(err)
	}
	if v := im3.At(0, 0); v > 1e-6 {
		t.Errorf("dark-field empty mask intensity = %f", v)
	}
	// Dark-field with a large opening -> bright at center.
	im4, err := simDF.Aerial([]geom.Polygon{plate}, window)
	if err != nil {
		t.Fatal(err)
	}
	if v := im4.At(0, 0); math.Abs(v-1) > 0.02 {
		t.Errorf("dark-field opening intensity = %f", v)
	}
}

func TestLineImageProfile(t *testing.T) {
	sim, err := New(fastSettings())
	if err != nil {
		t.Fatal(err)
	}
	// A single 250 nm chrome line on bright field: dark center, bright far.
	line := geom.R(-125, -2000, 125, 2000).Polygon()
	window := geom.R(-600, -300, 600, 300)
	im, err := sim.Aerial([]geom.Polygon{line}, window)
	if err != nil {
		t.Fatal(err)
	}
	center := im.At(0, 0)
	edge := im.At(125, 0)
	far := im.At(550, 0)
	if center > 0.3 {
		t.Errorf("line center intensity = %f, too bright for chrome", center)
	}
	if far < 0.7 {
		t.Errorf("far field = %f, should approach clear field", far)
	}
	if !(center < edge && edge < far) {
		t.Errorf("profile not monotone: center=%f edge=%f far=%f", center, edge, far)
	}
	// Symmetry about the line axis.
	if l, r := im.At(-200, 0), im.At(200, 0); math.Abs(l-r) > 0.01 {
		t.Errorf("asymmetric image: %f vs %f", l, r)
	}
}

func TestIsoDenseBiasEmerges(t *testing.T) {
	// The core proximity effect: the same drawn CD prints differently
	// through pitch. Assert the through-pitch CD spread is several nm.
	sim, err := New(fastSettings())
	if err != nil {
		t.Fatal(err)
	}
	cd := 180.0
	window := geom.R(-300, -200, 300, 200)
	measure := func(pitch float64) float64 {
		var mask []geom.Polygon
		if pitch == 0 { // isolated
			mask = []geom.Polygon{geom.R(-90, -2000, 90, 2000).Polygon()}
		} else {
			for i := -4; i <= 4; i++ {
				x := float64(i) * pitch
				mask = append(mask, geom.R(geom.Coord(x-cd/2), -2000, geom.Coord(x+cd/2), 2000).Polygon())
			}
		}
		im, err := sim.Aerial(mask, window)
		if err != nil {
			t.Fatal(err)
		}
		d, ok := im.FindCrossing(0, 0, 1, 0, 0.3, 400)
		if !ok {
			t.Fatalf("no crossing at pitch %f", pitch)
		}
		return 2 * d
	}
	pitches := []float64{360, 430, 500, 600, 800, 0}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range pitches {
		c := measure(p)
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if hi-lo < 5 {
		t.Errorf("through-pitch CD spread = %.1f nm, expected proximity effect >= 5 nm", hi-lo)
	}
}

func TestDefocusDegradesContrast(t *testing.T) {
	s := fastSettings()
	sim, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	var dense []geom.Polygon
	for i := -4; i <= 4; i++ {
		x := geom.Coord(i * 400)
		dense = append(dense, geom.R(x-100, -2000, x+100, 2000).Polygon())
	}
	window := geom.R(-250, -100, 250, 100)
	focus, err := sim.AerialDefocus(dense, window, 0)
	if err != nil {
		t.Fatal(err)
	}
	defoc, err := sim.AerialDefocus(dense, window, 800)
	if err != nil {
		t.Fatal(err)
	}
	contrast := func(im *Image) float64 {
		mx, mn := im.MaxIn(window), im.MinIn(window)
		return (mx - mn) / (mx + mn)
	}
	c0, c1 := contrast(focus), contrast(defoc)
	if c1 >= c0 {
		t.Errorf("defocus should reduce contrast: %f -> %f", c0, c1)
	}
}

func TestLineEndPullbackEmerges(t *testing.T) {
	// The printed line end retreats from the drawn tip: intensity at the
	// drawn tip is well below the line-center intensity.
	sim, err := New(fastSettings())
	if err != nil {
		t.Fatal(err)
	}
	line := geom.R(-90, -3000, 90, 0).Polygon() // chrome line, tip at y=0
	window := geom.R(-300, -800, 300, 300)
	im, err := sim.Aerial([]geom.Polygon{line}, window)
	if err != nil {
		t.Fatal(err)
	}
	// Light wraps around the tip: the drawn tip point is brighter than
	// the line body.
	tip := im.At(0, 0)
	body := im.At(0, -700)
	if tip < body+0.1 {
		t.Errorf("no tip rounding: tip=%f body=%f", tip, body)
	}
	// The printed (dark) line end retreats inside the drawn tip:
	// walking from the dark body toward the tip crosses the threshold
	// before the drawn end.
	th := 0.3
	d, ok := im.FindCrossing(0, -700, 0, 1, th, 1000)
	if !ok {
		t.Fatal("no crossing along line axis")
	}
	printedTip := -700 + d
	if printedTip >= 0 {
		t.Errorf("printed tip at %f, expected pullback (< 0)", printedTip)
	}
	if printedTip < -250 {
		t.Errorf("pullback %f nm implausibly large", -printedTip)
	}
}

func TestImageSamplingHelpers(t *testing.T) {
	im := &Image{
		Frame: Frame{W: 4, H: 4, PixelNM: 10, OriginX: 0, OriginY: 0},
		I: []float64{
			0, 0, 0, 0,
			0, 1, 1, 0,
			0, 1, 1, 0,
			0, 0, 0, 0,
		},
	}
	if v := im.At(10, 10); v != 1 {
		t.Errorf("At grid point = %f", v)
	}
	if v := im.At(5, 10); math.Abs(v-0.5) > 1e-12 {
		t.Errorf("At midpoint = %f", v)
	}
	if v := im.At(-100, -100); v != 0 {
		t.Errorf("outside = %f", v)
	}
	if v := im.AtPoint(geom.Pt(10, 20)); v != 1 {
		t.Errorf("AtPoint = %f", v)
	}
	cs := im.CrossSection(0, 10, 30, 10, 3)
	if len(cs) != 4 {
		t.Fatalf("cross section len = %d", len(cs))
	}
	if cs[1] != 1 || cs[0] != 0 {
		t.Errorf("cross section = %v", cs)
	}
	if mx := im.MaxIn(geom.R(0, 0, 30, 30)); mx != 1 {
		t.Errorf("MaxIn = %f", mx)
	}
	if mn := im.MinIn(geom.R(0, 0, 30, 30)); mn != 0 {
		t.Errorf("MinIn = %f", mn)
	}
}

func TestFindCrossingPrecision(t *testing.T) {
	// Build a linear ramp: crossing position is analytically known.
	f := Frame{W: 64, H: 4, PixelNM: 10, OriginX: 0, OriginY: 0}
	im := &Image{Frame: f, I: make([]float64, 64*4)}
	for y := 0; y < 4; y++ {
		for x := 0; x < 64; x++ {
			im.I[y*64+x] = float64(x) / 63
		}
	}
	// Intensity 0.5 at x = 31.5 px = 315 nm.
	d, ok := im.FindCrossing(0, 15, 1, 0, 0.5, 600)
	if !ok {
		t.Fatal("no crossing")
	}
	if math.Abs(d-315) > 0.5 {
		t.Errorf("crossing at %f, want 315", d)
	}
	// No crossing within range.
	if _, ok := im.FindCrossing(0, 15, -1, 0, 0.5, 600); ok {
		t.Error("crossing found walking off the low end")
	}
}

func TestNILSPositive(t *testing.T) {
	sim, err := New(fastSettings())
	if err != nil {
		t.Fatal(err)
	}
	line := geom.R(-125, -2000, 125, 2000).Polygon()
	im, err := sim.Aerial([]geom.Polygon{line}, geom.R(-400, -100, 400, 100))
	if err != nil {
		t.Fatal(err)
	}
	// NILS at the nominal edge.
	nils := im.NILS(125, 0, 1, 0, 250)
	if nils < 0.5 || nils > 10 {
		t.Errorf("NILS = %f, implausible", nils)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	// Both engines merge their per-kernel / per-source contributions in
	// a fixed order, so the parallel image is the serial one bit for bit
	// at any GOMAXPROCS (run under go test -cpu 1,2,4).
	mask := []geom.Polygon{geom.R(-90, -1000, 90, 1000).Polygon()}
	window := geom.R(-300, -300, 300, 300)
	for _, engine := range []Engine{EngineSOCS, EngineAbbe} {
		s := fastSettings()
		s.Engine = engine
		s.Parallel = true
		simP, _ := New(s)
		s.Parallel = false
		simS, _ := New(s)
		imP, err := simP.Aerial(mask, window)
		if err != nil {
			t.Fatal(err)
		}
		imS, err := simS.Aerial(mask, window)
		if err != nil {
			t.Fatal(err)
		}
		for i := range imP.I {
			if imP.I[i] != imS.I[i] {
				t.Fatalf("%v: parallel/serial mismatch at %d: %g vs %g", engine, i, imP.I[i], imS.I[i])
			}
		}
	}
}

func TestOversizeWindowRejected(t *testing.T) {
	sim, err := New(fastSettings())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Aerial(nil, geom.R(0, 0, 200000, 200000)); err == nil {
		t.Error("huge window should be rejected")
	}
	if _, err := sim.Aerial(nil, geom.Rect{}); err == nil {
		t.Error("empty window should be rejected")
	}
}

func TestAttPSMSteepensEdges(t *testing.T) {
	// Attenuated PSM's claim to fame: higher NILS at feature edges than
	// a binary mask, at the same geometry.
	base := fastSettings()
	binSim, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	psm := base
	psm.MaskTone = AttPSMBrightField
	psmSim, err := New(psm)
	if err != nil {
		t.Fatal(err)
	}
	var mask []geom.Polygon
	for i := -4; i <= 4; i++ {
		x := geom.Coord(i) * 500
		mask = append(mask, geom.R(x-125, -2000, x+125, 2000).Polygon())
	}
	window := geom.R(-400, -200, 400, 200)
	imBin, err := binSim.Aerial(mask, window)
	if err != nil {
		t.Fatal(err)
	}
	imPSM, err := psmSim.Aerial(mask, window)
	if err != nil {
		t.Fatal(err)
	}
	nilsBin := imBin.NILS(125, 0, 1, 0, 250)
	nilsPSM := imPSM.NILS(125, 0, 1, 0, 250)
	if nilsPSM <= nilsBin {
		t.Errorf("att-PSM NILS %.2f should beat binary %.2f", nilsPSM, nilsBin)
	}
	// The shifter leaks: intensity under the line is ~T, not 0.
	if v := imPSM.At(0, 0); v < 0.01 || v > 0.25 {
		t.Errorf("under-shifter intensity = %.3f, expected small but nonzero", v)
	}
}

func TestAttPSMDarkField(t *testing.T) {
	s := fastSettings()
	s.MaskTone = AttPSMDarkField
	sim, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	// Empty mask: uniform shifter background transmits T.
	im, err := sim.Aerial(nil, geom.R(-200, -200, 200, 200))
	if err != nil {
		t.Fatal(err)
	}
	if v := im.At(0, 0); math.Abs(v-0.06) > 0.01 {
		t.Errorf("shifter background intensity = %.3f, want ~0.06", v)
	}
	// A large opening transmits ~1.
	open := geom.R(-3000, -3000, 3000, 3000).Polygon()
	im2, err := sim.Aerial([]geom.Polygon{open}, geom.R(-200, -200, 200, 200))
	if err != nil {
		t.Fatal(err)
	}
	if v := im2.At(0, 0); math.Abs(v-1) > 0.03 {
		t.Errorf("opening intensity = %.3f", v)
	}
}

func TestToneString(t *testing.T) {
	names := map[Tone]string{
		BrightField: "bright-field", DarkField: "dark-field",
		AttPSMBrightField: "attpsm-bright", AttPSMDarkField: "attpsm-dark",
	}
	for tone, want := range names {
		if tone.String() != want {
			t.Errorf("%d = %q", tone, tone.String())
		}
	}
}

func TestAnnularImprovesDenseContrast(t *testing.T) {
	// Off-axis illumination's reason to exist: better modulation for
	// dense pitches near the resolution limit than conventional fill.
	conv := fastSettings()
	convSim, err := New(conv)
	if err != nil {
		t.Fatal(err)
	}
	ann := fastSettings()
	ann.Shape = Annular
	ann.SigmaOuter = 0.80
	ann.SigmaInner = 0.50
	annSim, err := New(ann)
	if err != nil {
		t.Fatal(err)
	}
	// Dense 150/150 lines: pitch 300 nm, near the limit for NA 0.68.
	var mask []geom.Polygon
	for i := -6; i <= 6; i++ {
		x := geom.Coord(i) * 300
		mask = append(mask, geom.R(x-75, -2000, x+75, 2000).Polygon())
	}
	window := geom.R(-300, -100, 300, 100)
	contrast := func(sim *Simulator) float64 {
		im, err := sim.Aerial(mask, window)
		if err != nil {
			t.Fatal(err)
		}
		mx, mn := im.MaxIn(window), im.MinIn(window)
		return (mx - mn) / (mx + mn)
	}
	cConv := contrast(convSim)
	cAnn := contrast(annSim)
	if cAnn <= cConv {
		t.Errorf("annular contrast %.3f should beat conventional %.3f at 300 nm pitch", cAnn, cConv)
	}
}

func TestDarkFieldContactPrinting(t *testing.T) {
	// The contact flow: square openings in chrome, dark-field tone.
	s := fastSettings()
	s.MaskTone = DarkField
	sim, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	// A 250 nm contact array at 600 pitch.
	var mask []geom.Polygon
	for r := -2; r <= 2; r++ {
		for c := -2; c <= 2; c++ {
			x, y := geom.Coord(c)*600, geom.Coord(r)*600
			mask = append(mask, geom.R(x-125, y-125, x+125, y+125).Polygon())
		}
	}
	im, err := sim.Aerial(mask, geom.R(-400, -400, 400, 400))
	if err != nil {
		t.Fatal(err)
	}
	center := im.At(0, 0)
	between := im.At(300, 0)
	if center < 0.4 {
		t.Errorf("contact center intensity = %.3f, too dim to open", center)
	}
	if between > center/2 {
		t.Errorf("between-contact intensity %.3f too bright vs center %.3f", between, center)
	}
	// The printed hole CD at a mid threshold: bright feature, so the
	// gap-style measurement applies (walk from the bright center).
	th := (center + between) / 2
	d1, ok1 := im.FindCrossing(0, 0, 1, 0, th, 400)
	d2, ok2 := im.FindCrossing(0, 0, -1, 0, th, 400)
	if !ok1 || !ok2 {
		t.Fatal("no hole contour")
	}
	cd := d1 + d2
	if cd < 150 || cd > 400 {
		t.Errorf("printed contact CD = %.1f, implausible for 250 drawn", cd)
	}
	// Corner rounding: the printed hole is effectively round, so the
	// diagonal extent is below sqrt(2) x the axis extent.
	dd1, ok := im.FindCrossing(0, 0, 1, 1, th, 400)
	if !ok {
		t.Fatal("no diagonal crossing")
	}
	if dd1 > d1*1.35 {
		t.Errorf("diagonal %.1f vs axis %.1f: square-ish hole, expected rounding", dd1, d1)
	}
}
