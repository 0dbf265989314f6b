module colarm/benchmark

go 1.22

require colarm v0.0.0

replace colarm => ../
