// Command accelsim simulates one of the paper's benchmarks on the
// CraterLake-class accelerator model.
//
// Usage:
//
//	accelsim -bench ResNet-20 -bs BS19 -word 28
//	accelsim -list
//	accelsim -bench LogReg -bs BS26 -word 36 -scheme rns-ckks
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"bitpacker"
	"bitpacker/internal/experiments"
)

func main() {
	bench := flag.String("bench", "ResNet-20", "benchmark name (-list to enumerate)")
	bs := flag.String("bs", "BS19", "bootstrapping algorithm: BS19 or BS26")
	word := flag.Int("word", 28, "hardware word size in bits")
	scheme := flag.String("scheme", "both", "bitpacker, rns-ckks, or both")
	list := flag.Bool("list", false, "list benchmarks and exit")
	flag.Parse()

	if *list {
		fmt.Println("benchmarks:", strings.Join(experiments.Workloads(), ", "))
		fmt.Println("bootstraps:", strings.Join(experiments.BootstrapAlgorithms(), ", "))
		return
	}

	var schemes []bitpacker.Scheme
	switch strings.ToLower(*scheme) {
	case "bitpacker":
		schemes = []bitpacker.Scheme{bitpacker.BitPacker}
	case "rns-ckks", "rnsckks":
		schemes = []bitpacker.Scheme{bitpacker.RNSCKKS}
	case "both":
		schemes = []bitpacker.Scheme{bitpacker.BitPacker, bitpacker.RNSCKKS}
	default:
		log.Fatalf("unknown scheme %q", *scheme)
	}

	fmt.Printf("%s (%s) on CraterLake-class hardware, w=%d bits\n", *bench, *bs, *word)
	var times []float64
	for _, s := range schemes {
		st, err := experiments.SimulateWorkload(*bench, *bs, s, *word)
		if err != nil {
			log.Fatal(err)
		}
		times = append(times, st.Milliseconds)
		fmt.Printf("  %-10v  %8.1f ms  %8.1f mJ  (lvl-mgmt %4.1f%%)  HBM %6.1f GB  EDP %.4f J*s  meanR %5.1f  area %.0f mm2\n",
			s, st.Milliseconds, st.EnergyMJ, st.LevelMgmtPercent, st.HBMGigabytes, st.EDP, st.MeanResidues, st.AreaMM2)
	}
	if len(times) == 2 {
		fmt.Printf("  RNS-CKKS/BitPacker slowdown: %.2fx\n", times[1]/times[0])
	}
}
