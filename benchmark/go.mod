module newsum/benchmark

go 1.22

require newsum v0.0.0

replace newsum => ../
