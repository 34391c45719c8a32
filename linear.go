package bitpacker

import "bitpacker/internal/ckks"

// Transform is an encoded plaintext linear map (matrix) ready to apply to
// ciphertexts at a fixed level.
type Transform struct {
	lt *ckks.LinearTransform
}

// Rotations returns the rotation amounts the transform's evaluation
// needs: the baby and giant steps of its BSGS factorization, which for a
// sparse transform no split improves are the diagonal indices. Pass them
// in Config.Rotations when creating the context.
func (t *Transform) Rotations() []int { return t.lt.Rotations() }

// KeySwitchCounts reports how many keyswitches one application costs
// evaluated naively, one per diagonal with a nonzero rotation, versus on
// the factored path Apply takes.
func (t *Transform) KeySwitchCounts() (naive, active int) { return t.lt.KeySwitchCounts() }

// NewMatrixTransform encodes a dense dim×dim matrix (dim must divide
// Slots()) for application at the given level. Input vectors must be
// replicated across slot blocks (see Replicate).
func (c *Context) NewMatrixTransform(mat [][]complex128, level int) (*Transform, error) {
	lt, err := ckks.NewLinearTransform(c.params, c.encoder, mat, level)
	if err != nil {
		return nil, err
	}
	return &Transform{lt: lt}, nil
}

// NewDiagonalTransform encodes a sparse linear map given by its nonzero
// diagonals: diags[d][i] multiplies input slot (i+d) mod Slots(). Indices
// are taken modulo Slots(); two that name the same rotation fail with
// ErrInvalidParams.
func (c *Context) NewDiagonalTransform(diags map[int][]complex128, level int) (*Transform, error) {
	lt, err := ckks.NewLinearTransformFromDiags(c.params, c.encoder, diags, level)
	if err != nil {
		return nil, err
	}
	return &Transform{lt: lt}, nil
}

// Apply computes the matrix-vector product M·v homomorphically. The
// ciphertext must sit at the transform's level (ErrLevelMismatch
// otherwise); follow with Rescale. Dense transforms evaluate
// baby-step/giant-step, double-hoisted: the baby rotations share one
// decomposition and stay undivided by the special modulus, and so does
// the output, which the Rescale then divides by it and by the level's
// retired moduli at once (Decrypt, MarshalCiphertext and a pipeline
// checkpoint divide it alone); sparse ones are the same evaluation with
// one giant step, every diagonal's rotation hoisted.
// Under a canceled WithContext the fan-out stops within one dispatch
// quantum and Apply fails with ErrCanceled. With Config.Retry, a
// dropped engine task (ErrEngineFault) re-dispatches the whole
// transform from the untouched input.
func (c *Context) Apply(ct *Ciphertext, t *Transform) (*Ciphertext, error) {
	return c.runOp("Apply", func() (*ckks.Ciphertext, error) { return c.eval.ApplyLinearTransform(ct.ct, t.lt) })
}

// MustApply is Apply, panicking on error.
func (c *Context) MustApply(ct *Ciphertext, t *Transform) *Ciphertext {
	return must(c.Apply(ct, t))
}

// Replicate repeats the first dim values across all slots, the layout
// NewMatrixTransform expects.
func (c *Context) Replicate(values []complex128, dim int) []complex128 {
	return ckks.ReplicateBlocks(values, dim, c.Slots())
}

// Chebyshev evaluates sum_k coeffs[k]*T_k(x) on an encrypted x with slots
// in [-1, 1] by Paterson–Stockmeyer, consuming ChebyshevDepth(deg) =
// O(log deg) levels for a degree-deg series. Chebyshev bases are how CKKS
// programs evaluate activation functions and bootstrapping's sine. With
// Config.Retry, a detected fault re-runs the evaluation from its input.
func (c *Context) Chebyshev(ct *Ciphertext, coeffs []float64) (*Ciphertext, error) {
	return c.runOp("Chebyshev", func() (*ckks.Ciphertext, error) { return c.eval.EvalChebyshev(c.encoder, ct.ct, coeffs) })
}

// ChebyshevDepth returns the number of levels Chebyshev consumes for a
// degree-deg series (assuming all coefficients nonzero) — use it to size
// level budgets.
func ChebyshevDepth(deg int) int { return ckks.ChebyshevDepth(deg) }
