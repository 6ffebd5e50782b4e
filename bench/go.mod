module domino/bench

go 1.24

require domino v0.0.0

replace domino => ../
