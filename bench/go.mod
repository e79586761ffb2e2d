module natix/bench

go 1.24

require natix v0.0.0

replace natix => ../
