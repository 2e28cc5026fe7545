module rdfindexes/benchmark

go 1.22

require rdfindexes v0.0.0

replace rdfindexes => ../
