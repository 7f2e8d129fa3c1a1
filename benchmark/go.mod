module arlo/benchmark

go 1.22

require arlo v0.0.0

replace arlo => ../
