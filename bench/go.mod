module leashedsgd/bench

go 1.24

require leashedsgd v0.0.0

replace leashedsgd => ../
