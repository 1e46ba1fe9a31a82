module gcx/gcxperf

go 1.22

require gcx v0.0.0

replace gcx => ../
