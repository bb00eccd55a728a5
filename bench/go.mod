module orchestra/bench

go 1.23

require orchestra v0.0.0

replace orchestra => ../
