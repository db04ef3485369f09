module smrp/bench

go 1.22

require smrp v0.0.0

replace smrp => ../
