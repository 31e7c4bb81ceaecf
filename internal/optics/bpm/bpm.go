// Package bpm is a 2-D scalar finite-difference beam-propagation method
// (FD-BPM) used to reproduce the paper's Fig. 3(b): the simulated power
// distribution of cascaded 50-50 Y-branch splitters, which validates the
// 10·log10(n_s) splitting-loss model the router uses.
//
// The solver integrates the paraxial (Fresnel) wave equation
//
//	∂E/∂z = (i / 2·k·n0) · (∂²E/∂x² + k²·(n(x,z)² − n0²)·E)
//
// with a Crank–Nicolson scheme (complex tridiagonal solve per step) and a
// quadratic absorbing boundary. Units are micrometres.
package bpm

import (
	"errors"
	"fmt"
	"math"
)

// Config sets the numerical and material parameters.
type Config struct {
	// WavelengthUM is the vacuum wavelength (1.55 µm for on-chip optics).
	WavelengthUM float64
	// NCore and NClad are the core and cladding refractive indices. Low
	// contrast keeps the paraxial approximation accurate.
	NCore, NClad float64
	// CoreWidthUM is the waveguide core width.
	CoreWidthUM float64
	// WindowUM is the full transverse window width.
	WindowUM float64
	// NX is the number of transverse grid points.
	NX int
	// StepUM is the longitudinal step Δz.
	StepUM float64
	// AbsorberUM is the absorbing boundary thickness.
	AbsorberUM float64
	// AbsorberStrength scales the per-step boundary damping.
	AbsorberStrength float64
}

// DefaultConfig returns a configuration suitable for the Y-branch studies.
func DefaultConfig() Config {
	return Config{
		WavelengthUM:     1.55,
		NCore:            1.465,
		NClad:            1.445,
		CoreWidthUM:      4.0,
		WindowUM:         80.0,
		NX:               640,
		StepUM:           0.5,
		AbsorberUM:       8.0,
		AbsorberStrength: 0.08,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.WavelengthUM <= 0:
		return errors.New("bpm: wavelength must be positive")
	case c.NCore <= c.NClad:
		return errors.New("bpm: core index must exceed cladding index")
	case c.NClad <= 0:
		return errors.New("bpm: cladding index must be positive")
	case c.CoreWidthUM <= 0:
		return errors.New("bpm: core width must be positive")
	case c.WindowUM <= 4*c.CoreWidthUM:
		return errors.New("bpm: window too narrow")
	case c.NX < 16:
		return errors.New("bpm: too few grid points")
	case c.StepUM <= 0:
		return errors.New("bpm: step must be positive")
	case c.AbsorberUM < 0 || c.AbsorberStrength < 0:
		return errors.New("bpm: absorber parameters must be non-negative")
	}
	return nil
}

// dx returns the transverse grid pitch.
func (c Config) dx() float64 { return c.WindowUM / float64(c.NX-1) }

// x returns the coordinate of grid point i, centred on zero.
func (c Config) x(i int) float64 { return -c.WindowUM/2 + float64(i)*c.dx() }

// IndexProfile supplies the refractive index at (x, z).
type IndexProfile interface {
	Index(xUM, zUM float64) float64
}

// ZInvariant is an optional IndexProfile extension: profiles that can
// report z-invariance over a longitudinal range let Propagate reuse the
// discretised potentials instead of re-sampling Index at every step.
type ZInvariant interface {
	// ZInvariantOver reports whether Index(x, z) is constant in z for every
	// x over the closed range [z0UM, z1UM].
	ZInvariantOver(z0UM, z1UM float64) bool
}

// Field is the complex transverse field envelope at the current z.
type Field struct {
	cfg Config
	E   []complex128
	Z   float64

	// Crank–Nicolson scratch, allocated on the first propagation and reused
	// across steps and calls (a multi-segment route propagates the same
	// Field many times).
	diag1, diag2, rhs []complex128
	lower, upper, tri []complex128
	pot, potNext      []complex128
	damp              []float64
}

// NewGaussian launches a Gaussian beam centred at centerUM with the given
// 1/e field waist.
func NewGaussian(cfg Config, centerUM, waistUM float64) (*Field, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if waistUM <= 0 {
		return nil, errors.New("bpm: waist must be positive")
	}
	f := &Field{cfg: cfg, E: make([]complex128, cfg.NX)}
	for i := range f.E {
		d := (cfg.x(i) - centerUM) / waistUM
		f.E[i] = complex(math.Exp(-d*d), 0)
	}
	return f, nil
}

// Power returns the total guided power ∫|E|² dx.
func (f *Field) Power() float64 {
	var sum float64
	for _, e := range f.E {
		sum += real(e)*real(e) + imag(e)*imag(e)
	}
	return sum * f.cfg.dx()
}

// PowerIn returns the power within [loUM, hiUM].
func (f *Field) PowerIn(loUM, hiUM float64) float64 {
	var sum float64
	for i, e := range f.E {
		if x := f.cfg.x(i); x >= loUM && x <= hiUM {
			sum += real(e)*real(e) + imag(e)*imag(e)
		}
	}
	return sum * f.cfg.dx()
}

// Normalize scales the field to unit total power.
func (f *Field) Normalize() {
	p := f.Power()
	if p <= 0 {
		return
	}
	s := complex(1/math.Sqrt(p), 0)
	for i := range f.E {
		f.E[i] *= s
	}
}

// Propagate advances the field by lengthUM through the profile using
// Crank–Nicolson steps.
func (f *Field) Propagate(profile IndexProfile, lengthUM float64) {
	cfg := f.cfg
	n := cfg.NX
	k0 := 2 * math.Pi / cfg.WavelengthUM
	dx := cfg.dx()
	steps := int(math.Ceil(lengthUM / cfg.StepUM))
	dz := lengthUM / float64(steps)

	// Ĥ = (1/2k n0)(D2 + k²(n²−n0²)); CN: (I − i dz/2 Ĥ₂) E⁺ = (I + i dz/2 Ĥ₁) E.
	coef := complex(0, dz/2/(2*k0*cfg.NClad))
	off := coef * complex(1/(dx*dx), 0)

	f.growScratch(n)
	diag1, diag2, rhs := f.diag1, f.diag2, f.rhs
	lower, upper, scratch := f.lower, f.upper, f.tri

	// The off-diagonal bands depend only on this call's step size, not on z:
	// fill them once per propagation.
	for i := 0; i < n; i++ {
		lower[i] = -off
		upper[i] = -off
	}
	lower[0] = 0
	upper[n-1] = 0

	damp := f.absorberMask()

	// The potential at a step's entry plane equals the previous step's exit
	// plane, so one sampled array is carried across steps (pot) and only
	// the exit plane is re-sampled (potNext) — and not even that when the
	// profile declares itself z-invariant over the step.
	inv, hasInv := profile.(ZInvariant)
	fillPot := func(z float64, dst []complex128) {
		for i := 0; i < n; i++ {
			dst[i] = potential(profile.Index(cfg.x(i), z), cfg, k0, dx)
		}
	}
	pot, potNext := f.pot, f.potNext
	fillPot(f.Z, pot)

	for s := 0; s < steps; s++ {
		z1 := f.Z
		z2 := f.Z + dz
		if hasInv && inv.ZInvariantOver(z1, z2) {
			copy(potNext, pot)
		} else {
			fillPot(z2, potNext)
		}
		for i := 0; i < n; i++ {
			diag1[i] = 1 + coef*pot[i]
			diag2[i] = 1 - coef*potNext[i]
		}
		// rhs = (I + i dz/2 Ĥ₁) E with Dirichlet edges.
		for i := 0; i < n; i++ {
			v := diag1[i] * f.E[i]
			if i > 0 {
				v += off * f.E[i-1]
			}
			if i < n-1 {
				v += off * f.E[i+1]
			}
			rhs[i] = v
		}
		solveTridiag(lower, diag2, upper, rhs, f.E, scratch)
		for i := 0; i < n; i++ {
			f.E[i] *= complex(damp[i], 0)
		}
		f.Z = z2
		pot, potNext = potNext, pot
	}
}

// potential returns the tridiagonal main-diagonal contribution of Ĥ at one
// point: −2/dx² + k²(n² − n0²).
func potential(nIdx float64, cfg Config, k0, dx float64) complex128 {
	return complex(-2/(dx*dx)+k0*k0*(nIdx*nIdx-cfg.NClad*cfg.NClad), 0)
}

// growScratch sizes the Crank–Nicolson scratch arrays for an n-point grid.
// Every array is fully written before it is read, so reuse needs no zeroing.
func (f *Field) growScratch(n int) {
	if len(f.diag1) == n {
		return
	}
	f.diag1 = make([]complex128, n)
	f.diag2 = make([]complex128, n)
	f.rhs = make([]complex128, n)
	f.lower = make([]complex128, n)
	f.upper = make([]complex128, n)
	f.tri = make([]complex128, n)
	f.pot = make([]complex128, n)
	f.potNext = make([]complex128, n)
}

// absorberMask returns the per-step boundary damping factors, computed once
// per Field (the mask depends only on the immutable Config).
func (f *Field) absorberMask() []float64 {
	cfg := f.cfg
	if len(f.damp) == cfg.NX {
		return f.damp
	}
	mask := make([]float64, cfg.NX)
	for i := range mask {
		mask[i] = 1
		x := cfg.x(i)
		edge := cfg.WindowUM / 2
		d := math.Min(edge-x, x+edge)
		if d < cfg.AbsorberUM && cfg.AbsorberUM > 0 {
			t := (cfg.AbsorberUM - d) / cfg.AbsorberUM
			mask[i] = math.Exp(-cfg.AbsorberStrength * t * t)
		}
	}
	f.damp = mask
	return mask
}

// solveTridiag solves a complex tridiagonal system with the Thomas
// algorithm: lower/diag/upper are the three bands, out receives the result.
func solveTridiag(lower, diag, upper, rhs, out, scratch []complex128) {
	n := len(diag)
	scratch[0] = upper[0] / diag[0]
	out[0] = rhs[0] / diag[0]
	for i := 1; i < n; i++ {
		m := diag[i] - lower[i]*scratch[i-1]
		scratch[i] = upper[i] / m
		out[i] = (rhs[i] - lower[i]*out[i-1]) / m
	}
	for i := n - 2; i >= 0; i-- {
		out[i] -= scratch[i] * out[i+1]
	}
}

// FundamentalMode relaxes a launched Gaussian into the guide's fundamental
// mode by propagating through a straight section (radiation escapes into
// the absorber) and renormalising.
func FundamentalMode(cfg Config, centerUM float64) (*Field, error) {
	f, err := NewGaussian(cfg, centerUM, cfg.CoreWidthUM*0.7)
	if err != nil {
		return nil, err
	}
	f.Propagate(Straight{Cfg: cfg, CenterUM: centerUM}, 200)
	f.Normalize()
	f.Z = 0
	return f, nil
}

// Straight is a straight waveguide index profile.
type Straight struct {
	Cfg      Config
	CenterUM float64
}

// Index implements IndexProfile.
func (s Straight) Index(x, _ float64) float64 {
	if math.Abs(x-s.CenterUM) <= s.Cfg.CoreWidthUM/2 {
		return s.Cfg.NCore
	}
	return s.Cfg.NClad
}

// ZInvariantOver implements ZInvariant: a straight guide never varies in z.
func (s Straight) ZInvariantOver(_, _ float64) bool { return true }

// guidePath is one branch arm: a core centre moving linearly in z.
type guidePath struct {
	z0, z1 float64 // valid z range
	c0, c1 float64 // centre at z0 and z1
}

func (g guidePath) center(z float64) float64 {
	if z <= g.z0 {
		return g.c0
	}
	if z >= g.z1 {
		return g.c1
	}
	t := (z - g.z0) / (g.z1 - g.z0)
	return g.c0 + t*(g.c1-g.c0)
}

// Cascade is a tree of Y-branch splitters: Stages stages of simultaneous
// 1→2 splits. Stage k occupies z ∈ [k·StageLenUM, (k+1)·StageLenUM].
type Cascade struct {
	Cfg Config
	// Stages is the number of cascaded Y-branches along every path.
	Stages int
	// StageLenUM is the length of one branching stage.
	StageLenUM float64
	// SeparationsUM[k] is the +/- fork offset applied at stage k.
	SeparationsUM []float64

	paths []guidePath
}

// NewCascade builds an n-stage cascade with default geometry: a 600 µm
// stage length and fork offsets that keep all 2^n arms separated.
func NewCascade(cfg Config, stages int) (*Cascade, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if stages < 0 || stages > 3 {
		return nil, fmt.Errorf("bpm: %d stages outside supported range 0..3", stages)
	}
	seps := []float64{12, 5, 2.5}
	c := &Cascade{
		Cfg:           cfg,
		Stages:        stages,
		StageLenUM:    600,
		SeparationsUM: seps[:stages],
	}
	c.build()
	return c, nil
}

// build lays out the guide paths of every stage.
func (c *Cascade) build() {
	centres := []float64{0}
	c.paths = nil
	for k := 0; k < c.Stages; k++ {
		z0 := float64(k) * c.StageLenUM
		z1 := z0 + c.StageLenUM
		var next []float64
		for _, ctr := range centres {
			for _, sign := range []float64{-1, 1} {
				target := ctr + sign*c.SeparationsUM[k]
				c.paths = append(c.paths, guidePath{z0: z0, z1: z1, c0: ctr, c1: target})
				next = append(next, target)
			}
		}
		centres = next
	}
	// Output runway: straight continuations of the final arms.
	z0 := float64(c.Stages) * c.StageLenUM
	for _, ctr := range centres {
		c.paths = append(c.paths, guidePath{z0: z0, z1: z0 + c.StageLenUM, c0: ctr, c1: ctr})
	}
	if c.Stages == 0 {
		c.paths = append(c.paths, guidePath{z0: 0, z1: c.StageLenUM, c0: 0, c1: 0})
	}
}

// TotalLengthUM returns the full device length including the runway.
func (c *Cascade) TotalLengthUM() float64 {
	return float64(c.Stages+1) * c.StageLenUM
}

// ArmCentersUM returns the output arm centres.
func (c *Cascade) ArmCentersUM() []float64 {
	centres := []float64{0}
	for k := 0; k < c.Stages; k++ {
		var next []float64
		for _, ctr := range centres {
			next = append(next, ctr-c.SeparationsUM[k], ctr+c.SeparationsUM[k])
		}
		centres = next
	}
	return centres
}

// Index implements IndexProfile: core wherever any active arm covers x.
func (c *Cascade) Index(x, z float64) float64 {
	half := c.Cfg.CoreWidthUM / 2
	for _, g := range c.paths {
		if z < g.z0-1e-9 || z > g.z1+1e-9 {
			continue
		}
		if math.Abs(x-g.center(z)) <= half {
			return c.Cfg.NCore
		}
	}
	return c.Cfg.NClad
}

// ZInvariantOver implements ZInvariant: the profile is constant in z over
// [z0, z1] when every arm active somewhere in the range is straight
// (c0 == c1) — true throughout the output runway, which is a third to a
// quarter of the device length.
func (c *Cascade) ZInvariantOver(z0, z1 float64) bool {
	for _, g := range c.paths {
		if z1 < g.z0-1e-9 || z0 > g.z1+1e-9 {
			continue
		}
		if g.c0 != g.c1 {
			return false
		}
	}
	return true
}

// Result summarises a cascade simulation (the paper's Fig. 3(b)).
type Result struct {
	// ArmPowers holds each output arm's power, input-normalised.
	ArmPowers []float64
	// TotalOut is the summed guided output power (1 − radiation loss).
	TotalOut float64
	// PerArmLossDB is each arm's loss relative to the input.
	PerArmLossDB []float64
	// IdealPerArmLossDB is the 10·log10(2)·stages model value.
	IdealPerArmLossDB float64
}

// SimulateUncached runs the fundamental mode through the cascade and
// measures the output power split, bypassing the process-wide cache (see
// Simulate).
func SimulateUncached(cfg Config, stages int) (Result, error) {
	cas, err := NewCascade(cfg, stages)
	if err != nil {
		return Result{}, err
	}
	f, err := FundamentalMode(cfg, 0)
	if err != nil {
		return Result{}, err
	}
	f.Propagate(cas, cas.TotalLengthUM())

	centres := cas.ArmCentersUM()
	res := Result{IdealPerArmLossDB: float64(stages) * 10 * math.Log10(2)}
	for _, ctr := range centres {
		w := cfg.CoreWidthUM * 1.75
		p := f.PowerIn(ctr-w, ctr+w)
		res.ArmPowers = append(res.ArmPowers, p)
		res.TotalOut += p
		if p > 0 {
			res.PerArmLossDB = append(res.PerArmLossDB, -10*math.Log10(p))
		} else {
			res.PerArmLossDB = append(res.PerArmLossDB, math.Inf(1))
		}
	}
	return res, nil
}
