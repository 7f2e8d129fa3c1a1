// Package model describes Transformer architectures and provides the
// calibrated latency model that stands in for real compiled runtimes.
//
// Arlo never executes a neural network: every scheduling decision in the
// paper consumes only (a) the latency of a statically compiled runtime as a
// function of its max_length, (b) the latency of a dynamically compiled
// runtime as a function of the exact request length, and (c) the staircase
// shape of (a). This package reproduces all three from the measurement
// anchors published in the paper (Fig. 2): BERT-Base latency grows 4.22x
// from length 64 to 512 (1.15 ms -> 4.86 ms), BERT-Large 5.25x, dynamic
// compilation inflates latency by 1.22x-3.56x for TensorRT and ~2.86x on
// average for TVM Unity, and static latency is flat within each 64-length
// tile step.
package model

import "fmt"

// Arch describes a discriminative Transformer architecture.
type Arch struct {
	// Name identifies the architecture, e.g. "bert-base".
	Name string
	// Layers is the number of Transformer encoder blocks.
	Layers int
	// Hidden is the model (embedding) dimension.
	Hidden int
	// Heads is the number of attention heads.
	Heads int
	// Intermediate is the feed-forward inner dimension (usually 4*Hidden).
	Intermediate int
	// MaxLength is the longest sequence the model supports.
	MaxLength int
	// TileStep is the GPU matmul tile granularity: static-runtime latency
	// is flat within each TileStep-length band and jumps at multiples of
	// it (the "staircase pattern", paper section 3.3).
	TileStep int
}

// Validate reports whether the architecture is internally consistent.
func (a Arch) Validate() error {
	switch {
	case a.Name == "":
		return fmt.Errorf("model: architecture has no name")
	case a.Layers <= 0:
		return fmt.Errorf("model %s: Layers must be positive, got %d", a.Name, a.Layers)
	case a.Hidden <= 0:
		return fmt.Errorf("model %s: Hidden must be positive, got %d", a.Name, a.Hidden)
	case a.Heads <= 0:
		return fmt.Errorf("model %s: Heads must be positive, got %d", a.Name, a.Heads)
	case a.Hidden%a.Heads != 0:
		return fmt.Errorf("model %s: Hidden (%d) must be divisible by Heads (%d)", a.Name, a.Hidden, a.Heads)
	case a.Intermediate <= 0:
		return fmt.Errorf("model %s: Intermediate must be positive, got %d", a.Name, a.Intermediate)
	case a.MaxLength <= 0:
		return fmt.Errorf("model %s: MaxLength must be positive, got %d", a.Name, a.MaxLength)
	case a.TileStep <= 0:
		return fmt.Errorf("model %s: TileStep must be positive, got %d", a.Name, a.TileStep)
	case a.MaxLength%a.TileStep != 0:
		return fmt.Errorf("model %s: MaxLength (%d) must be a multiple of TileStep (%d)", a.Name, a.MaxLength, a.TileStep)
	}
	return nil
}

// RoundUp returns n rounded up to the next multiple of the tile step,
// clamped to at least one step. This is the effective sequence length a
// static runtime computes over.
func (a Arch) RoundUp(n int) int {
	if n <= a.TileStep {
		return a.TileStep
	}
	r := n % a.TileStep
	if r == 0 {
		return n
	}
	return n + a.TileStep - r
}

// NumRuntimes returns how many statically compiled runtimes Arlo prepares
// for this architecture: one per tile step up to MaxLength (paper section
// 3.3, e.g. 512/64 = 8 for BERT).
func (a Arch) NumRuntimes() int { return a.MaxLength / a.TileStep }

// RuntimeLengths returns the max_length of every runtime Arlo compiles for
// this architecture, in increasing order: TileStep, 2*TileStep, ..., MaxLength.
func (a Arch) RuntimeLengths() []int {
	out := make([]int, 0, a.NumRuntimes())
	for l := a.TileStep; l <= a.MaxLength; l += a.TileStep {
		out = append(out, l)
	}
	return out
}

// RuntimeLengthsN returns n runtime max_lengths evenly spaced across
// MaxLength (step MaxLength/n), the configuration swept in Fig. 11.
// It panics if n does not divide MaxLength.
func (a Arch) RuntimeLengthsN(n int) []int {
	if n <= 0 || a.MaxLength%n != 0 {
		panic(fmt.Sprintf("model %s: cannot split MaxLength %d into %d runtimes", a.Name, a.MaxLength, n))
	}
	step := a.MaxLength / n
	out := make([]int, 0, n)
	for l := step; l <= a.MaxLength; l += step {
		out = append(out, l)
	}
	return out
}
