// The benchmark is a module of its own so that it builds from its own
// directory; the replace line points it at the tree it measures.
module esse/bench

go 1.22

require esse v0.0.0

replace esse => ../
