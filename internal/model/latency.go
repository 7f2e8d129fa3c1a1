package model

import (
	"fmt"
	"time"
)

// Compilation distinguishes how a runtime was produced by the DL compiler.
type Compilation int

const (
	// Static is a runtime compiled for one fixed input shape; shorter
	// requests are zero-padded up to its max_length (paper section 2.2).
	Static Compilation = iota
	// Dynamic is a runtime compiled with a dynamic length axis; it accepts
	// any length without padding but pays a per-kernel dispatch and
	// missed-fusion penalty (paper Fig. 2).
	Dynamic
)

// String returns the compilation mode name.
func (c Compilation) String() string {
	switch c {
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	default:
		return fmt.Sprintf("Compilation(%d)", int(c))
	}
}

// LatencyModel predicts single-request (batch size 1) computation time for
// runtimes of one architecture, calibrated against two measured anchors.
//
// Static runtimes: lat(max_length) = base + perTile * roundUpTile(max_length).
// The affine form reproduces the paper's anchors exactly: with BERT-Base
// base=0.62 ms and perTile=8.28 us/token, lat(64)=1.15 ms and
// lat(512)=4.86 ms (ratio 4.23x vs the published 4.22x). A static runtime's
// latency depends only on its compiled max_length, never on the request:
// padded tokens are computed like real ones.
//
// Dynamic runtimes: lat(s) = inflation(s) * (base + perToken * s) with no
// tile rounding (dynamic kernels handle exact shapes) and an inflation
// factor interpolated from InflationShort at length 0 to InflationLong at
// MaxLength, matching the measured 3.56x..1.22x band for TensorRT.
type LatencyModel struct {
	arch Arch
	// base is the length-independent kernel-launch + framework overhead.
	base time.Duration
	// perToken is the marginal cost of one (effective) token.
	perToken time.Duration
	// inflationShort/inflationLong bound the dynamic-compilation penalty.
	inflationShort, inflationLong float64
	// inflationHalf is the length scale of the hyperbolic inflation decay;
	// chosen >= base/perToken so dynamic latency stays monotone in length.
	inflationHalf float64
	// batchAlpha is the marginal cost of one extra sequence in a batch
	// relative to a full execution: batch latency = lat * (1 + alpha*(b-1)).
	// Batching amortizes launch overhead and raises GPU utilization, so
	// alpha < 1 (default 0.5 — batch 8 yields ~1.8x throughput, in line
	// with measured BERT batching gains at these sequence lengths).
	batchAlpha float64
}

// CalibrationError is returned when latency anchors cannot produce a
// physically sensible model.
type CalibrationError struct {
	Arch   string
	Reason string
}

// Error implements the error interface.
func (e *CalibrationError) Error() string {
	return fmt.Sprintf("model %s: calibration failed: %s", e.Arch, e.Reason)
}

// Calibrate builds a LatencyModel from two measured static-runtime anchors:
// the latency at one tile step (lenA = TileStep) and at MaxLength. The
// inflation pair bounds the dynamic-compilation penalty (short, long).
func Calibrate(arch Arch, latAtTile, latAtMax time.Duration, inflationShort, inflationLong float64) (*LatencyModel, error) {
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	if latAtTile <= 0 || latAtMax <= latAtTile {
		return nil, &CalibrationError{arch.Name, fmt.Sprintf("need 0 < lat(tile)=%v < lat(max)=%v", latAtTile, latAtMax)}
	}
	if inflationShort < 1 || inflationLong < 1 {
		return nil, &CalibrationError{arch.Name, "inflation factors must be >= 1"}
	}
	spanTokens := arch.MaxLength - arch.TileStep
	if spanTokens <= 0 {
		return nil, &CalibrationError{arch.Name, "MaxLength must exceed TileStep"}
	}
	perToken := (latAtMax - latAtTile) / time.Duration(spanTokens)
	base := latAtTile - time.Duration(arch.TileStep)*perToken
	if base < 0 {
		return nil, &CalibrationError{arch.Name, "anchors imply negative fixed overhead (super-linear scaling); use closer anchors"}
	}
	half := float64(arch.TileStep)
	if perToken > 0 {
		if byBase := float64(base) / float64(perToken); byBase > half {
			half = byBase
		}
	}
	return &LatencyModel{
		arch:           arch,
		base:           base,
		perToken:       perToken,
		inflationShort: inflationShort,
		inflationLong:  inflationLong,
		inflationHalf:  half,
		batchAlpha:     0.5,
	}, nil
}

// BatchScale returns the latency multiplier for executing b sequences as
// one batch instead of one: 1 + alpha*(b-1) with alpha < 1 (sub-linear —
// batching amortizes kernel launches and fills the GPU). The paper fixes
// batch size 1 for its latency-sensitive setting and leaves dynamic
// batching as future work (section 6); this model supports the extension.
func (m *LatencyModel) BatchScale(b int) float64 {
	if b <= 1 {
		return 1
	}
	return 1 + m.batchAlpha*float64(b-1)
}

// SetBatchAlpha overrides the marginal batch cost (must be in (0, 1]).
func (m *LatencyModel) SetBatchAlpha(alpha float64) error {
	if alpha <= 0 || alpha > 1 {
		return fmt.Errorf("model %s: batch alpha must be in (0, 1], got %v", m.arch.Name, alpha)
	}
	m.batchAlpha = alpha
	return nil
}

// Arch returns the architecture this model was calibrated for.
func (m *LatencyModel) Arch() Arch { return m.arch }

// StaticLatency returns the computation time of a statically compiled
// runtime with the given max_length. Every request served by that runtime,
// regardless of its own length, costs exactly this much (zero padding).
func (m *LatencyModel) StaticLatency(maxLength int) time.Duration {
	eff := m.arch.RoundUp(maxLength)
	return m.base + time.Duration(eff)*m.perToken
}

// IdealStaticLatency returns the computation time of a request of length
// seqLen on the smallest static runtime that fits it — the "actual
// computation time" baseline the paper compares padding overhead against.
func (m *LatencyModel) IdealStaticLatency(seqLen int) time.Duration {
	return m.StaticLatency(m.arch.RoundUp(seqLen))
}

// DynamicInflation returns the dynamic-compilation latency penalty for a
// request of length seqLen. Kernel-dispatch overhead dominates short
// sequences, so the penalty decays hyperbolically from the short-sequence
// bound toward the long-sequence bound: infl(s) = long + (short-long) *
// half/(s+half). The half-length is chosen so the inflated latency remains
// monotone increasing in sequence length.
func (m *LatencyModel) DynamicInflation(seqLen int) float64 {
	if seqLen < 0 {
		seqLen = 0
	}
	if seqLen > m.arch.MaxLength {
		seqLen = m.arch.MaxLength
	}
	decay := m.inflationHalf / (float64(seqLen) + m.inflationHalf)
	return m.inflationLong + (m.inflationShort-m.inflationLong)*decay
}

// DynamicLatency returns the computation time of a request of length seqLen
// on a dynamically compiled runtime: exact-shape execution (no padding, no
// tile rounding) inflated by the dynamic-compilation penalty.
func (m *LatencyModel) DynamicLatency(seqLen int) time.Duration {
	if seqLen <= 0 {
		seqLen = 1
	}
	exact := m.base + time.Duration(seqLen)*m.perToken
	return time.Duration(float64(exact) * m.DynamicInflation(seqLen))
}
