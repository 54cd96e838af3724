module dramhit/benchmark

go 1.22

require dramhit v0.0.0

replace dramhit => ../
