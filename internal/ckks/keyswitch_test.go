package ckks

import (
	"fmt"
	"math"
	"math/big"
	"math/rand/v2"
	"slices"
	"testing"

	"bitpacker/internal/core"
	"bitpacker/internal/ring"
)

// minGroups is the fewest blocks any partition of the digits into blocks
// whose products stay within p admits (a lone digit always forms a
// block), searched exhaustively: every digit joins an open block or
// opens a new one.
func minGroups(prods []*big.Int, p *big.Int) int {
	best := len(prods)
	var blocks []*big.Int
	var place func(i int)
	place = func(i int) {
		if len(blocks) >= best {
			return
		}
		if i == len(prods) {
			best = len(blocks)
			return
		}
		for _, b := range blocks {
			if m := new(big.Int).Mul(b, prods[i]); m.Cmp(p) <= 0 {
				saved := new(big.Int).Set(b)
				b.Set(m)
				place(i + 1)
				b.Set(saved)
			}
		}
		blocks = append(blocks, new(big.Int).Set(prods[i]))
		place(i + 1)
		blocks = blocks[:len(blocks)-1]
	}
	place(0)
	return best
}

// TestKeySwitchGroups checks ksPlan's decomposition at every level of the
// benchmark's chains — BitPacker and RNS-CKKS at 28-, 36- and 61-bit
// words (8 levels of 40-bit scale, LogN 13), serve_mix's (BitPacker, 3
// levels, 48-bit base, LogN 12) and shard_job's (BitPacker, 4 levels,
// LogN 12), each with 3 and 4 key digits: the groups partition the live
// rows, each is a union of whole key digits whose product is within P,
// every other row of the extended basis is what its conversion fills,
// and the group count is the minimum over every partition of the level's
// non-empty digits. The infer chains keep one group per digit at the top
// level, so no top-level keyswitch moves a byte.
func TestKeySwitchGroups(t *testing.T) {
	type config struct {
		name   string
		scheme core.Scheme
		levels int
		qMin   float64
		w      int
		logN   int
		infer  bool // infer_bp28's or infer_rns61's chain
	}
	configs := []config{
		{"serve_mix", core.BitPacker, 3, 48, 61, 12, false},
		{"shard_job", core.BitPacker, 4, 60, 61, 12, false},
	}
	for _, w := range []int{28, 36, 61} {
		for _, scheme := range []core.Scheme{core.BitPacker, core.RNSCKKS} {
			infer := w == 28 && scheme == core.BitPacker || w == 61 && scheme == core.RNSCKKS
			configs = append(configs, config{fmt.Sprintf("%v/w%d", scheme, w), scheme, 8, 60, w, 13, infer})
		}
	}
	for _, c := range configs {
		for _, dnum := range []int{3, 4} {
			targets := make([]float64, c.levels+1)
			for i := range targets {
				targets[i] = 40
			}
			prog := core.ProgramSpec{MaxLevel: c.levels, TargetScaleBits: targets, QMinBits: c.qMin}
			params, err := BuildParameters(c.scheme, prog, core.SecuritySpec{LogN: c.logN}, core.HWSpec{WordBits: c.w}, dnum, 3.2)
			if err != nil {
				t.Fatalf("%s dnum %d: %v", c.name, dnum, err)
			}
			ev := NewEvaluator(params, nil)
			var shape []string
			for l := params.MaxLevel(); l >= 0; l-- {
				tag := fmt.Sprintf("%s dnum %d L%d", c.name, params.Dnum, l)
				live := params.LevelModuli(l)
				pl := ev.ksPlan(live)
				if !slices.Equal(pl.ext, append(slices.Clone(live), params.Chain.Special...)) {
					t.Fatalf("%s: extended basis %v", tag, pl.ext)
				}
				prods := map[int]*big.Int{} // each non-empty digit's product over live
				for _, q := range live {
					d := params.DigitOf(q)
					if prods[d] == nil {
						prods[d] = big.NewInt(1)
					}
					prods[d].Mul(prods[d], new(big.Int).SetUint64(q))
				}
				covered := make([]int, len(live)) // groups holding each live row
				var sizes []int
				for g, gr := range pl.groups {
					prod := big.NewInt(1)
					for _, d := range gr.digits {
						if prods[d] == nil {
							t.Fatalf("%s: group %d holds digit %d, empty at this level", tag, g, d)
						}
						prod.Mul(prod, prods[d])
					}
					if prod.Cmp(params.specialP) > 0 {
						t.Errorf("%s: group %d product %d bits above P's %d", tag, g, prod.BitLen(), params.specialP.BitLen())
					}
					for r, q := range live {
						if slices.Contains(gr.digits, params.DigitOf(q)) != slices.Contains(gr.own, r) {
							t.Fatalf("%s: group %d (digits %v) and row %d (digit %d) disagree: not whole digits", tag, g, gr.digits, r, params.DigitOf(q))
						}
					}
					for _, r := range gr.own {
						covered[r]++
					}
					rows := append(slices.Clone(gr.own), gr.rest...)
					slices.Sort(rows)
					if !slices.Equal(rows, seq(len(pl.ext))) {
						t.Fatalf("%s: group %d own %v and rest %v do not split the extended rows", tag, g, gr.own, gr.rest)
					}
					sizes = append(sizes, len(gr.own))
				}
				for r, n := range covered {
					if n != 1 {
						t.Fatalf("%s: row %d in %d groups", tag, r, n)
					}
				}
				var ps []*big.Int
				for _, p := range prods {
					ps = append(ps, p)
				}
				if want := minGroups(ps, params.specialP); len(pl.groups) != want {
					t.Errorf("%s: %d groups %v, the fewest partitions admit is %d", tag, len(pl.groups), sizes, want)
				}
				if c.infer && dnum == 3 && l == params.MaxLevel() && len(pl.groups) != dnum {
					t.Errorf("%s: %d groups at the top of an infer chain, want %d", tag, len(pl.groups), params.Dnum)
				}
				shape = append(shape, fmt.Sprintf("L%d%v", l, sizes))
			}
			t.Logf("%s dnum %d, P %d bits: %v", c.name, params.Dnum, params.specialP.BitLen(), shape)
		}
	}
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// TestKeySwitchNoiseEveryLevel measures, independently of the noise
// model, what one keyswitch adds at every level of the bp28 and rns61
// infer chains (LogN 13, 8 levels of 40-bit scale, 3 digits), where the
// decomposition runs anywhere from three groups down to one: the phase
// of Rotate(ct) minus φ_g of ct's phase, and the phase of MulRelin(ct,
// ct) minus the square of ct's phase, each difference composed per
// coefficient in math/big. The largest coefficient must stay below
// KeySwitchBits, the noise model's charge for one keyswitch.
func TestKeySwitchNoiseEveryLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("key generation for two LogN 13 chains")
	}
	for _, c := range []struct {
		scheme core.Scheme
		w      int
	}{{core.BitPacker, 28}, {core.RNSCKKS, 61}} {
		s := newTestSetup(t, c.scheme, 8, 40, c.w, 13, 3, []int{1})
		galEl := ring.GaloisElementForRotation(1, s.params.N())
		bound := s.ev.nm.KeySwitchBits()
		rng := rand.New(rand.NewPCG(523, uint64(c.w)))
		// added is log2 of got's phase minus want (coefficient domain),
		// at its largest coefficient.
		added := func(got *Ciphertext, want *ring.Poly) float64 {
			pg := s.decryptPoly(got).Value
			pg.Sub(pg, want)
			basis := pg.Basis()
			worst := new(big.Int)
			for k := 0; k < s.params.N(); k++ {
				if d := pg.CoeffBig(basis, k); d.CmpAbs(worst) > 0 {
					worst.Abs(d)
				}
			}
			f, _ := new(big.Float).SetInt(worst).Float64()
			return math.Log2(f)
		}
		for l := s.params.MaxLevel(); l >= 0; l-- {
			scale := s.params.DefaultScale(l)
			pt := &Plaintext{Value: s.enc.MustEncode(randomValues(s.params.Slots(), rng), scale, s.params.LevelModuli(l)), Level: l, Scale: scale}
			ct := s.encr.MustEncryptAtLevel(pt, l)
			phase := s.decryptPoly(ct).Value
			rotated := phase.Automorphism(galEl)
			square := phase.Copy()
			square.NTT()
			square.MulCoeffs(square, square)
			square.INTT()

			groups := len(s.ev.ksPlan(s.params.LevelModuli(l)).groups)
			for _, m := range []struct {
				op   string
				bits float64
			}{
				{"Rotate", added(s.ev.MustRotate(ct, 1), rotated)},
				{"MulRelin", added(s.ev.MustMulRelin(ct, ct), square)},
			} {
				t.Logf("%v L%d (%d groups) %s: keyswitch adds 2^%.2f, KeySwitchBits %.2f", c.scheme, l, groups, m.op, m.bits, bound)
				if m.bits >= bound {
					t.Errorf("%v L%d (%d groups) %s: keyswitch adds 2^%.2f, above KeySwitchBits %.2f", c.scheme, l, groups, m.op, m.bits, bound)
				}
			}
		}
	}
}
