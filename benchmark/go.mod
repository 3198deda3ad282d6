module flash/benchmark

go 1.24

require flash v0.0.0

replace flash => ../
