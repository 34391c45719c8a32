package ckks

import "bitpacker/internal/fherr"

// Chebyshev polynomial evaluation: sum_k coeffs[k]*T_k(x) for x encrypted
// with slots in [-1, 1]. Chebyshev bases keep coefficients small and are
// how CKKS bootstrapping evaluates its sine approximation.
//
// EvalChebyshev uses Paterson–Stockmeyer over the Chebyshev basis: the
// baby steps T_1..T_bs and the giant steps T_{bs·2^i} are computed by the
// product rule 2·T_a·T_b = T_{a+b} + T_{|a-b|}, then the series is
// evaluated by recursive division p = q·T_m + r. Depth drops from deg
// (three-term recurrence) to O(log deg) and non-scalar multiplications to
// ~2·sqrt(deg).

// trimChebyshev drops trailing zero coefficients, returning the effective
// degree (-1 for an empty series).
func trimChebyshev(coeffs []float64) int {
	deg := len(coeffs) - 1
	for deg > 0 && coeffs[deg] == 0 {
		deg--
	}
	return deg
}

// chebPlan describes the Paterson–Stockmeyer split for a given degree.
type chebPlan struct {
	deg    int
	bs     int   // baby-step count: T_1..T_bs are computed directly
	giants []int // giant degrees bs, 2bs, 4bs, ... <= deg
}

func newChebPlan(deg int) chebPlan {
	m := 0
	for 1<<m < deg+1 {
		m++
	}
	bs := 1 << ((m + 1) / 2)
	var giants []int
	for g := bs; g <= deg; g <<= 1 {
		giants = append(giants, g)
	}
	return chebPlan{deg: deg, bs: bs, giants: giants}
}

// giantFor returns the largest giant degree <= d. The giant ladder always
// reaches past d/2, so the quotient degree d-m stays below m.
func (pl chebPlan) giantFor(d int) int {
	m := pl.giants[0]
	for _, g := range pl.giants {
		if g <= d {
			m = g
		}
	}
	return m
}

// babyDepths returns the multiplicative depth at which each baby T_k
// (index k, 0 <= k <= bs) becomes available: T_1 is free, and
// T_k = 2·T_ceil(k/2)·T_floor(k/2) - T_{k mod 2} costs one level over its
// deepest factor.
func babyDepths(bs int) []int {
	d := make([]int, bs+1)
	for k := 2; k <= bs; k++ {
		a, b := (k+1)/2, k/2
		if d[a] > d[b] {
			d[k] = d[a] + 1
		} else {
			d[k] = d[b] + 1
		}
	}
	return d
}

// ChebyshevDepth returns the number of multiplicative levels EvalChebyshev
// consumes for a degree-deg series, assuming all coefficients are nonzero
// (zero coefficients can only make the actual evaluation shallower). It
// grows as O(log deg) rather than the naive recurrence's deg.
func ChebyshevDepth(deg int) int {
	if deg <= 0 {
		return 0
	}
	if deg <= 2 {
		return deg // naive path: deg 1 costs 1 level, deg 2 costs 2
	}
	pl := newChebPlan(deg)
	dT := babyDepths(pl.bs)
	giantDepth := map[int]int{}
	gd := dT[pl.bs]
	for _, g := range pl.giants {
		giantDepth[g] = gd
		gd++ // each doubling T_{2m} = 2·T_m^2 - 1 costs one level
	}
	var rec func(d int) int
	rec = func(d int) int {
		if d < pl.bs {
			if d == 0 {
				return 0 // pure pending constant
			}
			// Linear combination of babies: MulConst+Rescale costs one
			// level over the deepest baby used.
			max := 0
			for k := 1; k <= d; k++ {
				if dT[k] > max {
					max = dT[k]
				}
			}
			return max + 1
		}
		m := pl.giantFor(d)
		qd := rec(d - m)
		mul := giantDepth[m]
		if qd > mul {
			mul = qd
		}
		mul++
		if rd := rec(m - 1); rd > mul {
			mul = rd
		}
		return mul
	}
	return rec(deg)
}

// chebDivRem divides the Chebyshev-basis polynomial c by T_m:
// c = q·T_m + r with deg r < m, using T_a·T_m = (T_{a+m} + T_{|a-m|})/2.
// Requires deg c < 2m.
func chebDivRem(c []float64, m int) (q, r []float64) {
	d := len(c) - 1
	rem := make([]float64, d+1)
	copy(rem, c)
	q = make([]float64, d-m+1)
	for k := d; k >= m+1; k-- {
		qi := 2 * rem[k]
		q[k-m] = qi
		rem[k] = 0
		idx := 2*m - k
		if idx < 0 {
			idx = -idx
		}
		rem[idx] -= qi / 2
	}
	q[0] = rem[m]
	rem[m] = 0
	r = rem[:m]
	return q, r
}

// chebRes is a partial evaluation result: the encrypted part plus a
// pending plaintext constant (folded in as late as possible so that pure
// constants never cost a multiplication or a level).
type chebRes struct {
	ct *Ciphertext // nil means the value is just the constant
	c0 float64
}

// chebEval threads a sticky error through the heavily chained Chebyshev
// algebra (the bufio.Scanner pattern): after any step fails, subsequent
// steps become no-ops and the first error is reported once at the end.
type chebEval struct {
	ev  *Evaluator
	err error
}

func (ce *chebEval) take(out *Ciphertext, err error) *Ciphertext {
	if ce.err == nil && err != nil {
		ce.err = err
	}
	if ce.err != nil {
		return nil
	}
	return out
}

// step1 and step2 run one evaluator operation unless a step failed.
func step1[A any](ce *chebEval, f func(A) (*Ciphertext, error), a A) *Ciphertext {
	if ce.err != nil {
		return nil
	}
	return ce.take(f(a))
}

func step2[A, B any](ce *chebEval, f func(A, B) (*Ciphertext, error), a A, b B) *Ciphertext {
	if ce.err != nil {
		return nil
	}
	return ce.take(f(a, b))
}

func (ce *chebEval) rescale(ct *Ciphertext) *Ciphertext { return step1(ce, ce.ev.Rescale, ct) }
func (ce *chebEval) square(ct *Ciphertext) *Ciphertext  { return step1(ce, ce.ev.Square, ct) }
func (ce *chebEval) mulRescale(a, b *Ciphertext) *Ciphertext {
	return step2(ce, ce.ev.MulRescale, a, b)
}
func (ce *chebEval) mulRelin(a, b *Ciphertext) *Ciphertext { return step2(ce, ce.ev.MulRelin, a, b) }
func (ce *chebEval) mulConst(ct *Ciphertext, v float64) *Ciphertext {
	return step2(ce, ce.ev.MulConst, ct, v)
}
func (ce *chebEval) mulScalarInt(ct *Ciphertext, k int64) *Ciphertext {
	return step2(ce, ce.ev.MulScalarInt, ct, k)
}
func (ce *chebEval) addConst(ct *Ciphertext, v float64) *Ciphertext {
	return step2(ce, ce.ev.AddConst, ct, v)
}
func (ce *chebEval) add(a, b *Ciphertext) *Ciphertext { return step2(ce, ce.ev.Add, a, b) }
func (ce *chebEval) sub(a, b *Ciphertext) *Ciphertext { return step2(ce, ce.ev.Sub, a, b) }
func (ce *chebEval) adjustTo(ct *Ciphertext, level int) *Ciphertext {
	return step2(ce, ce.ev.AdjustTo, ct, level)
}

// EvalChebyshev evaluates sum_k coeffs[k]*T_k(x) by Paterson–Stockmeyer,
// consuming ChebyshevDepth(deg) = O(log deg) levels. Zero coefficients
// are skipped. Degrees <= 2 delegate to the three-term recurrence, which
// is optimal there. Constants are applied as scalars (MulConst, AddConst)
// and never encoded; enc stays for the callers that pass one.
func (ev *Evaluator) EvalChebyshev(enc *Encoder, x *Ciphertext, coeffs []float64) (*Ciphertext, error) {
	if len(coeffs) == 0 {
		return nil, fherr.Wrap(fherr.ErrInvalidParams, "ckks: empty Chebyshev series")
	}
	deg := trimChebyshev(coeffs)
	if deg <= 2 {
		return ev.EvalChebyshevNaive(enc, x, coeffs[:deg+1])
	}
	need := ChebyshevDepth(deg)
	if x.Level < need {
		return nil, fherr.Wrap(fherr.ErrChainExhausted,
			"ckks: Chebyshev degree %d needs %d levels, have %d", deg, need, x.Level)
	}
	pl := newChebPlan(deg)
	ce := &chebEval{ev: ev}

	// Baby steps T_1..T_bs via 2·T_a·T_b = T_{a+b} + T_{|a-b|}. baby
	// returns T_k at level lvl; each adjusted copy is made once and shared
	// by every step and combination that reads it there.
	T := make([]*Ciphertext, pl.bs+1)
	T[1] = x.CopyNew()
	adjusted := map[[2]int]*Ciphertext{}
	baby := func(k, lvl int) *Ciphertext {
		key := [2]int{k, lvl}
		if adjusted[key] == nil {
			adjusted[key] = ce.adjustTo(T[k], lvl)
		}
		return adjusted[key]
	}
	for k := 2; k <= pl.bs && ce.err == nil; k++ {
		a, b := (k+1)/2, k/2
		var tk *Ciphertext
		if a == b {
			// T_{2a} = 2·T_a^2 - 1.
			tk = ce.addConst(ce.mulScalarInt(ce.mulRescale(T[a], T[a]), 2), -1)
		} else {
			// T_{a+b} = 2·T_a·T_b - T_1 (a-b = 1 here).
			lvl := min(T[a].Level, T[b].Level)
			prod := ce.mulScalarInt(ce.mulRescale(baby(a, lvl), baby(b, lvl)), 2)
			if ce.err == nil {
				tk = ce.sub(prod, baby(1, prod.Level))
			}
		}
		T[k] = tk
	}
	if ce.err != nil {
		return nil, ce.err
	}

	// Giant steps T_{2m} = 2·T_m^2 - 1 starting from T_bs.
	G := map[int]*Ciphertext{pl.giants[0]: T[pl.bs]}
	for i := 1; i < len(pl.giants) && ce.err == nil; i++ {
		g := G[pl.giants[i-1]]
		G[pl.giants[i]] = ce.addConst(ce.mulScalarInt(ce.mulRescale(g, g), 2), -1)
	}
	if ce.err != nil {
		return nil, ce.err
	}

	// linearComb evaluates a degree < bs series against the babies: the
	// babies it uses are brought to the deepest one's level, multiplied
	// by their constants and summed, and the sum is rescaled once.
	linearComb := func(c []float64) chebRes {
		res := chebRes{c0: 0}
		if len(c) > 0 {
			res.c0 = c[0]
		}
		lvl := -1
		for k := 1; k < len(c); k++ {
			if c[k] != 0 && (lvl < 0 || T[k].Level < lvl) {
				lvl = T[k].Level
			}
		}
		if lvl < 0 {
			return res
		}
		var sum *Ciphertext
		for k := 1; k < len(c); k++ {
			if c[k] == 0 {
				continue
			}
			term := ce.mulConst(baby(k, lvl), c[k])
			if sum == nil {
				sum = term
			} else {
				sum = ce.add(sum, term)
			}
		}
		res.ct = ce.rescale(sum)
		return res
	}

	var eval func(c []float64) chebRes
	eval = func(c []float64) chebRes {
		if ce.err != nil {
			return chebRes{}
		}
		d := len(c) - 1
		for d > 0 && c[d] == 0 {
			d--
		}
		c = c[:d+1]
		if d < pl.bs {
			return linearComb(c)
		}
		m := pl.giantFor(d)
		qc, rc := chebDivRem(c, m)
		qRes := eval(qc)
		rRes := eval(rc)
		if ce.err != nil {
			return chebRes{}
		}

		// prod = q·T_m.
		var prod *Ciphertext
		tm := G[m]
		switch {
		case qRes.ct != nil:
			qct := qRes.ct
			if qRes.c0 != 0 {
				qct = ce.addConst(qct, qRes.c0)
			}
			if ce.err != nil {
				return chebRes{}
			}
			lvl := min(qct.Level, tm.Level)
			prod = ce.mulRescale(ce.adjustTo(qct, lvl), ce.adjustTo(tm, lvl))
		case qRes.c0 != 0:
			prod = ce.rescale(ce.mulConst(tm, qRes.c0))
		}
		if ce.err != nil {
			return chebRes{}
		}

		if prod == nil {
			return rRes
		}
		if rRes.ct == nil {
			return chebRes{ct: prod, c0: rRes.c0}
		}
		lvl := prod.Level
		if rRes.ct.Level < lvl {
			lvl = rRes.ct.Level
		}
		sum := ce.add(ce.adjustTo(prod, lvl), ce.adjustTo(rRes.ct, lvl))
		return chebRes{ct: sum, c0: rRes.c0}
	}

	res := eval(coeffs[:deg+1])
	if ce.err != nil {
		return nil, ce.err
	}
	if res.ct == nil {
		// Degenerate all-constant series (deg was trimmed above, so this
		// needs every higher coefficient to cancel).
		return ev.EvalChebyshevNaive(enc, x, []float64{res.c0})
	}
	if res.c0 != 0 {
		return ev.AddConst(res.ct, res.c0)
	}
	return res.ct, nil
}

// EvalChebyshevNaive evaluates the series by the three-term recurrence
// T_k = 2x·T_{k-1} - T_{k-2}, consuming one level per degree. Zero
// coefficients skip their MulConst+Rescale (a degree-trimmed constant
// series consumes no levels at all). Kept as the reference and
// differential-test baseline for EvalChebyshev.
func (ev *Evaluator) EvalChebyshevNaive(enc *Encoder, x *Ciphertext, coeffs []float64) (*Ciphertext, error) {
	if len(coeffs) == 0 {
		return nil, fherr.Wrap(fherr.ErrInvalidParams, "ckks: empty Chebyshev series")
	}
	deg := trimChebyshev(coeffs)
	if x.Level < deg {
		return nil, fherr.Wrap(fherr.ErrChainExhausted,
			"ckks: Chebyshev degree %d needs %d levels, have %d", deg, deg, x.Level)
	}
	ce := &chebEval{ev: ev}

	if deg == 0 {
		// 0·x keeps x's level, scale and noise under a zero message.
		zero, err := ev.MulScalarInt(x, 0)
		if err != nil {
			return nil, err
		}
		return ev.AddConst(zero, coeffs[0])
	}

	// acc accumulates coeffs[k] * T_k at progressively lower levels;
	// T_0 = 1 is handled as a plaintext constant at the end.
	var acc *Ciphertext
	addTerm := func(tk *Ciphertext, c float64) {
		if ce.err != nil {
			return
		}
		term := ce.rescale(ce.mulConst(tk, c))
		if ce.err != nil {
			return
		}
		if acc == nil {
			acc = term
		} else {
			acc = ce.add(ce.adjustTo(acc, term.Level), term)
		}
	}

	tPrev := x.CopyNew() // T_1 = x at level L
	if coeffs[1] != 0 {
		addTerm(tPrev, coeffs[1])
	}
	var tPrev2 *Ciphertext
	for k := 2; k <= deg && ce.err == nil; k++ {
		var tk *Ciphertext
		if k == 2 {
			// T_2 = 2x^2 - 1.
			tk = ce.addConst(ce.mulScalarInt(ce.rescale(ce.square(x)), 2), -1)
			if ce.err == nil {
				tPrev2 = ce.adjustTo(x.CopyNew(), tk.Level) // T_1 aligned
			}
		} else {
			// T_k = 2x*T_{k-1} - T_{k-2}.
			xa := ce.adjustTo(x.CopyNew(), tPrev.Level)
			prod := ce.mulScalarInt(ce.rescale(ce.mulRelin(xa, tPrev)), 2)
			if ce.err == nil {
				sub := ce.adjustTo(tPrev2, prod.Level)
				tk = ce.sub(prod, sub)
			}
			if ce.err == nil {
				tPrev2 = ce.adjustTo(tPrev, tk.Level)
			}
		}
		tPrev = tk
		if ce.err == nil && coeffs[k] != 0 {
			addTerm(tk, coeffs[k])
		}
	}
	if ce.err != nil {
		return nil, ce.err
	}
	// + coeffs[0] * T_0 (acc is non-nil: the trimmed leading coefficient
	// is nonzero, so the k = deg term was added).
	if coeffs[0] != 0 {
		return ev.AddConst(acc, coeffs[0])
	}
	return acc, nil
}
