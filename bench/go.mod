module mrx/bench

go 1.24

require mrx v0.0.0

replace mrx => ../
