module upim/benchmark

go 1.24

require upim v0.0.0

replace upim => ../
