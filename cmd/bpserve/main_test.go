package main

import (
	"strings"
	"testing"

	"bitpacker"
)

func TestParseScheme(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want bitpacker.Scheme
		ok   bool
	}{
		{"bitpacker", bitpacker.BitPacker, true},
		{"rnsckks", bitpacker.RNSCKKS, true},
		{bitpacker.BitPacker.String(), bitpacker.BitPacker, true},
		{bitpacker.RNSCKKS.String(), bitpacker.RNSCKKS, true},
		{"rns-ckks", bitpacker.RNSCKKS, true},
		{"", 0, false},
		{"rns_ckks", 0, false},
		{"bitpaker", 0, false},
		{"both", 0, false},
	} {
		got, err := parseScheme(tc.in)
		if tc.ok {
			if err != nil || got != tc.want {
				t.Errorf("parseScheme(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
			}
			continue
		}
		if err == nil {
			t.Errorf("parseScheme(%q) = %v, want an error", tc.in, got)
		} else if !strings.Contains(err.Error(), schemeValues) {
			t.Errorf("parseScheme(%q) error %q does not list the accepted values", tc.in, err)
		}
	}
}
