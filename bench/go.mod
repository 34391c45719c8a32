// The benchmark is a module of its own so that it carries its own build
// file; its path sits under the library's, which is what lets it import
// bitpacker/internal/... and time each layer's exported functions.
module bitpacker/bench

go 1.22

require bitpacker v0.0.0

replace bitpacker => ../
