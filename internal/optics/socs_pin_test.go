package optics

import (
	"testing"

	"goopc/internal/fft"
	"goopc/internal/geom"
	"goopc/internal/obs"
)

// referenceSOCS evaluates the SOCS image the direct way, as the
// bit-identity oracle for the band-compact engine: every kernel field
// is built on the zero-filled full coarse grid and inverted with
// Inverse2DP, each kernel's |field|^2 goes to its own buffer, the
// buffers are merged in kernel order, and the interpolation inverse
// runs on the zero-filled full fine grid.
func referenceSOCS(t *testing.T, sim *Simulator, mask []geom.Polygon, window geom.Rect) []float64 {
	t.Helper()
	frame := FrameFor(window, sim.S.PixelNM, sim.S.GuardNM)
	ks, err := sim.kernels(frame, sim.S.DefocusNM)
	if err != nil {
		t.Fatal(err)
	}
	spectrum, err := sim.maskSpectrum(mask, frame, ks.fineCols)
	if err != nil {
		t.Fatal(err)
	}
	defer fft.PutGrid(spectrum)
	cw, ch := ks.cw, ks.ch
	cplan, err := fft.NewPlan2D(cw, ch)
	if err != nil {
		t.Fatal(err)
	}
	field := fft.NewGrid(cw, ch)
	parts := make([][]float64, ks.kept)
	for k := range parts {
		clear(field.Data)
		for j, bi := range ks.idx {
			kx, ky := int(bi)%frame.W, int(bi)/frame.W
			ci := wrapBin(ky, frame.H, ch)*cw + wrapBin(kx, frame.W, cw)
			field.Data[ci] = spectrum.Data[bi] * ks.coef[k][j]
		}
		if err := cplan.Inverse2DP(field); err != nil {
			t.Fatal(err)
		}
		part := make([]float64, cw*ch)
		for i, v := range field.Data {
			re, im := real(v), imag(v)
			part[i] = re*re + im*im
		}
		parts[k] = part
	}
	coarse := make([]float64, cw*ch)
	for _, part := range parts {
		for i, v := range part {
			coarse[i] += v
		}
	}
	if cw == frame.W && ch == frame.H {
		return coarse
	}
	cg := fft.NewGrid(cw, ch)
	for i, v := range coarse {
		cg.Data[i] = complex(v, 0)
	}
	if err := cplan.Forward2DP(cg); err != nil {
		t.Fatal(err)
	}
	n := frame.W * frame.H
	fg := fft.NewGrid(frame.W, frame.H)
	ratio := complex(float64(n)/float64(cw*ch), 0)
	for cky := 0; cky < ch; cky++ {
		if cky == ch/2 {
			continue
		}
		for ckx := 0; ckx < cw; ckx++ {
			if ckx == cw/2 {
				continue
			}
			fi := wrapBin(cky, ch, frame.H)*frame.W + wrapBin(ckx, cw, frame.W)
			fg.Data[fi] = cg.Data[cky*cw+ckx] * ratio
		}
	}
	fplan, err := fft.NewPlan2D(frame.W, frame.H)
	if err != nil {
		t.Fatal(err)
	}
	if err := fplan.Inverse2DP(fg); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, n)
	for i, v := range fg.Data {
		out[i] = real(v)
	}
	return out
}

// TestSOCSMatchesFullGridPipeline pins Aerial to the full-grid
// reference bit for bit, serial and parallel, on the routed tile frame
// (512² fine, 256² coarse), a non-square frame, and a frame whose
// coarse grid is the frame itself (the copy branch of upsample). It
// also pins the work counter: one transform per kernel inverse plus the
// mask forward and, when the grids differ, the interpolation's forward
// and inverse.
func TestSOCSMatchesFullGridPipeline(t *testing.T) {
	coarsePx := Default()
	coarsePx.PixelNM = 64
	cases := []struct {
		name     string
		s        Settings
		window   geom.Rect
		fw, fh   int
		sameGrid bool
	}{
		{"tile512", Default(), geom.R(-2187, -2187, 2188, 2188), 512, 512, false},
		{"nonsquare", Default(), geom.R(-2187, -250, 2188, 250), 512, 256, false},
		{"coarse=fine", coarsePx, geom.R(-500, -500, 500, 500), 64, 64, true},
	}
	mask := parityMask()
	mask = append(mask, geom.R(1500, -1700, 2100, -1500).Polygon(), geom.R(-2000, 1000, -1800, 1900).Polygon())
	transforms := obs.Default().Counter("goopc_fft_transforms_total", "")
	for _, c := range cases {
		for _, parallel := range []bool{false, true} {
			s := c.s
			s.Parallel = parallel
			sim, err := New(s)
			if err != nil {
				t.Fatal(err)
			}
			cw, ch, fw, fh, err := sim.CoarseGrid(c.window, s.DefocusNM)
			if err != nil {
				t.Fatal(err)
			}
			if fw != c.fw || fh != c.fh || (cw == fw && ch == fh) != c.sameGrid {
				t.Fatalf("%s: frame %dx%d coarse %dx%d, want frame %dx%d sameGrid=%v",
					c.name, fw, fh, cw, ch, c.fw, c.fh, c.sameGrid)
			}
			kept, _, err := sim.KernelInfo(c.window, s.DefocusNM)
			if err != nil {
				t.Fatal(err)
			}
			before := transforms.Value()
			im, err := sim.Aerial(mask, c.window)
			if err != nil {
				t.Fatal(err)
			}
			want := int64(kept + 3)
			if c.sameGrid {
				want = int64(kept + 1)
			}
			if got := transforms.Value() - before; got != want {
				t.Errorf("%s parallel=%v: %d transforms per image, want %d", c.name, parallel, got, want)
			}
			ref := referenceSOCS(t, sim, mask, c.window)
			for i := range ref {
				if im.I[i] != ref[i] {
					t.Fatalf("%s parallel=%v: pixel %d = %v, full-grid pipeline %v",
						c.name, parallel, i, im.I[i], ref[i])
				}
			}
		}
	}
}
