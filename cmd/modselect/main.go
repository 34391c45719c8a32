// Command modselect runs the modulus-selection algorithms (paper Sec. 3.3)
// and prints the resulting level-to-modulus maps for both representations
// side by side.
//
// Usage:
//
//	modselect -word 28 -levels 6 -scale 40 -logn 16
//	modselect -word 64 -schedule 30,30,30,40,50,60   # the paper's Fig. 1
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"bitpacker/internal/core"
)

func main() {
	word := flag.Int("word", 28, "hardware word size in bits (28..64)")
	levels := flag.Int("levels", 6, "multiplicative depth")
	scale := flag.Float64("scale", 40, "target scale in bits (all levels)")
	schedule := flag.String("schedule", "", "comma-separated per-level scale bits (level 0 first; overrides -levels/-scale)")
	logn := flag.Int("logn", 16, "log2 of the ring degree")
	qmin := flag.Float64("qmin", 60, "level-0 modulus bits")
	specials := flag.Int("specials", 0, "keyswitching special primes to reserve")
	flag.Parse()

	var targets []float64
	if *schedule != "" {
		for _, part := range strings.Split(*schedule, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				log.Fatalf("bad schedule entry %q: %v", part, err)
			}
			targets = append(targets, v)
		}
	} else {
		targets = make([]float64, *levels+1)
		for i := range targets {
			targets[i] = *scale
		}
	}
	prog := core.ProgramSpec{
		MaxLevel:        len(targets) - 1,
		TargetScaleBits: targets,
		QMinBits:        *qmin,
	}
	sec := core.SecuritySpec{LogN: *logn}
	hw := core.HWSpec{WordBits: *word}
	opts := core.Options{SpecialPrimes: *specials}

	bp, err := core.BuildBitPacker(prog, sec, hw, opts)
	if err != nil {
		log.Fatalf("BitPacker: %v", err)
	}
	rc, err := core.BuildRNSCKKS(prog, sec, hw, opts)
	if err != nil {
		log.Fatalf("RNS-CKKS: %v", err)
	}
	for _, ch := range []*core.Chain{bp, rc} {
		fmt.Print(ch.Describe())
		top := ch.Levels[ch.MaxLevel()]
		fmt.Printf("  top-level: %d residues for %.1f info bits -> %.1f%% packing overhead; mean R %.2f\n\n",
			top.R(), top.QBits, 100*ch.PackingOverhead(ch.MaxLevel()), ch.MeanR())
	}
	fmt.Printf("residue savings at top level: %d -> %d (%.0f%%)\n",
		rc.Levels[rc.MaxLevel()].R(), bp.Levels[bp.MaxLevel()].R(),
		100*(1-float64(bp.Levels[bp.MaxLevel()].R())/float64(rc.Levels[rc.MaxLevel()].R())))
}
