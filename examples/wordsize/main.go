// Word-size study, the library's half: the same depth-4 program's modulus
// chain at 28-bit words under both representations, showing that
// BitPacker packs each level's modulus into fewer residues (Fig. 1). The
// accelerator-model sweep over word sizes (Fig. 14) is the reproduction's:
// `go run ./cmd/bpbench -exp fig14`.
package main

import (
	"fmt"
	"log"

	"bitpacker"
)

func main() {
	for i, scheme := range []bitpacker.Scheme{bitpacker.BitPacker, bitpacker.RNSCKKS} {
		ctx, err := bitpacker.New(bitpacker.Config{
			Scheme:    scheme,
			LogN:      12,
			Levels:    4,
			ScaleBits: 45,
			WordBits:  28,
		})
		if err != nil {
			log.Fatal(err)
		}
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(ctx.ChainDescription())
	}
}
