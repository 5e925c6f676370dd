// Package optics implements the partially coherent scalar aerial-image
// simulator the OPC and verification engines are built on. The mask
// transmission is rasterized with exact area antialiasing and
// transformed with an FFT; partial coherence is then imaged by one of
// two engines. The Abbe reference engine filters the spectrum once per
// sampled illumination source point with the shifted, defocused pupil
// and sums the coherent-field intensities. The production SOCS engine
// (the default) eigendecomposes the transmission cross-coefficient of
// the same source and pupil into a small set of coherent kernels —
// cached per (frame, defocus) — so one simulation costs one inverse FFT
// per kernel instead of one per source point. The intensity scale is
// anchored so an unpatterned clear field images at intensity 1.0.
//
// The default settings model the 248 nm / NA 0.68 exposure tools on
// which production OPC was first adopted (the reproduced paper's
// regime); the proximity effects OPC corrects — iso-dense bias,
// line-end pullback, corner rounding — all emerge from this model from
// first principles.
package optics

import (
	"errors"
	"fmt"
)

// IllumShape selects the illuminator geometry.
type IllumShape uint8

// Illuminator shapes.
const (
	// Conventional is a filled circular source of radius SigmaOuter.
	Conventional IllumShape = iota
	// Annular is a ring source between SigmaInner and SigmaOuter.
	Annular
	// Quadrupole is four poles of radius SigmaInner centered at
	// SigmaOuter along the +-45 degree diagonals.
	Quadrupole
)

func (s IllumShape) String() string {
	switch s {
	case Conventional:
		return "conventional"
	case Annular:
		return "annular"
	case Quadrupole:
		return "quadrupole"
	}
	return "?"
}

// Engine selects the imaging algorithm.
type Engine uint8

// Imaging engines.
const (
	// EngineSOCS (the default) images with a precomputed
	// Sum-of-Coherent-Systems kernel set: the transmission
	// cross-coefficient built from the sampled source and defocused
	// pupil is eigendecomposed once per (frame, defocus) and cached, so
	// one simulation costs one inverse FFT per retained kernel instead
	// of one per source point. Accuracy is controlled by SOCSMass.
	EngineSOCS Engine = iota
	// EngineAbbe is the direct source-point integration loop — the
	// golden reference path the SOCS decomposition is validated against.
	EngineAbbe
)

func (e Engine) String() string {
	switch e {
	case EngineAbbe:
		return "abbe"
	}
	return "socs"
}

// Tone selects the mask polarity.
type Tone uint8

// Mask polarities.
const (
	// BrightField: drawn polygons are chrome (opaque) on a clear
	// background. The printed resist feature is the dark region
	// (intensity below threshold) — the normal case for poly and metal
	// with positive resist.
	BrightField Tone = iota
	// DarkField: drawn polygons are clear openings in chrome — the
	// contact/via case.
	DarkField
	// AttPSMBrightField: drawn polygons are attenuated phase shifter
	// (amplitude -sqrt(PSMTransmission)) on a clear background. The
	// pi-shifted leakage steepens image slopes at feature edges — the
	// RET usually co-adopted with OPC.
	AttPSMBrightField
	// AttPSMDarkField: drawn polygons are clear openings in attenuated
	// shifter background — the att-PSM contact case.
	AttPSMDarkField
)

func (t Tone) String() string {
	switch t {
	case DarkField:
		return "dark-field"
	case AttPSMBrightField:
		return "attpsm-bright"
	case AttPSMDarkField:
		return "attpsm-dark"
	}
	return "bright-field"
}

// Settings describes the exposure system and simulation grid.
type Settings struct {
	// LambdaNM is the exposure wavelength in nm.
	LambdaNM float64
	// NA is the projection numerical aperture.
	NA float64
	// Shape selects the illuminator; Sigma values are pupil-relative.
	Shape      IllumShape
	SigmaOuter float64
	SigmaInner float64
	// PixelNM is the simulation grid pixel in nm.
	PixelNM float64
	// GuardNM is the optical guard band added around the requested
	// window so wraparound and neighborhood effects are captured. It
	// should be at least the optical ambit (~2 lambda/NA).
	GuardNM float64
	// SourceSteps is the number of source sample points across the
	// illuminator diameter; the source grid is SourceSteps^2 clipped to
	// the shape.
	SourceSteps int
	// DefocusNM is the image-plane defocus in nm (0 = best focus).
	DefocusNM float64
	// MaskTone is the polarity of the mask (BrightField default).
	MaskTone Tone
	// PSMTransmission is the intensity transmission of the attenuated
	// shifter for the AttPSM tones (0 selects the industry-standard 6%).
	PSMTransmission float64
	// Parallel enables source-point fan-out across goroutines.
	Parallel bool
	// Engine selects the imaging path (EngineSOCS default).
	Engine Engine
	// SOCSMass is the fraction of the TCC trace the retained kernel set
	// must capture; 0 selects the default 0.995. Higher mass means more
	// kernels (slower) and tighter agreement with the Abbe reference.
	SOCSMass float64
	// SOCSMaxKernels caps the retained kernel count regardless of mass
	// (0 = uncapped; the count never exceeds the source-point count,
	// which bounds the TCC rank).
	SOCSMaxKernels int
}

// Default returns the 248 nm KrF baseline: NA 0.68, conventional
// sigma 0.6 illumination, 16 nm grid, 1.5 um guard band.
func Default() Settings {
	return Settings{
		LambdaNM:    248,
		NA:          0.68,
		Shape:       Conventional,
		SigmaOuter:  0.6,
		PixelNM:     16,
		GuardNM:     1500,
		SourceSteps: 7,
		Parallel:    true,
	}
}

// DefaultAnnular returns the off-axis variant used with assist features
// (annular 0.75/0.45), which trades iso performance for dense DOF.
func DefaultAnnular() Settings {
	s := Default()
	s.Shape = Annular
	s.SigmaOuter = 0.75
	s.SigmaInner = 0.45
	return s
}

// ErrBadSettings wraps settings validation failures.
var ErrBadSettings = errors.New("optics: invalid settings")

// Validate checks physical and numerical sanity.
func (s Settings) Validate() error {
	switch {
	case s.LambdaNM <= 0:
		return fmt.Errorf("%w: lambda %v", ErrBadSettings, s.LambdaNM)
	case s.NA <= 0 || s.NA >= 1:
		return fmt.Errorf("%w: NA %v (dry system expected)", ErrBadSettings, s.NA)
	case s.SigmaOuter <= 0 || s.SigmaOuter >= 1:
		return fmt.Errorf("%w: sigma outer %v", ErrBadSettings, s.SigmaOuter)
	case s.Shape != Conventional && (s.SigmaInner < 0 || s.SigmaInner >= s.SigmaOuter):
		return fmt.Errorf("%w: sigma inner %v vs outer %v", ErrBadSettings, s.SigmaInner, s.SigmaOuter)
	case s.PixelNM <= 0:
		return fmt.Errorf("%w: pixel %v", ErrBadSettings, s.PixelNM)
	case s.GuardNM < 0:
		return fmt.Errorf("%w: guard %v", ErrBadSettings, s.GuardNM)
	case s.SourceSteps < 1:
		return fmt.Errorf("%w: source steps %d", ErrBadSettings, s.SourceSteps)
	case s.Engine > EngineAbbe:
		return fmt.Errorf("%w: engine %d", ErrBadSettings, s.Engine)
	case s.SOCSMass < 0 || s.SOCSMass >= 1:
		return fmt.Errorf("%w: SOCS mass %v", ErrBadSettings, s.SOCSMass)
	case s.SOCSMaxKernels < 0:
		return fmt.Errorf("%w: SOCS max kernels %d", ErrBadSettings, s.SOCSMaxKernels)
	}
	// The pixel must resolve the field band limit NA(1+sigma)/lambda.
	nyquist := s.LambdaNM / (2 * s.NA * (1 + s.SigmaOuter))
	if s.PixelNM > nyquist {
		return fmt.Errorf("%w: pixel %v nm exceeds field Nyquist %.1f nm", ErrBadSettings, s.PixelNM, nyquist)
	}
	return nil
}

// RayleighResolution returns the k1=0.61 Rayleigh resolution in nm.
func (s Settings) RayleighResolution() float64 {
	return 0.61 * s.LambdaNM / s.NA
}

// DepthOfFocus returns the classical lambda/(2 NA^2) DOF scale in nm.
func (s Settings) DepthOfFocus() float64 {
	return s.LambdaNM / (2 * s.NA * s.NA)
}
