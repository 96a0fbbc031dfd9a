// The benchmark is a module of its own so that it builds from its own
// directory; the replace directive lets it import the system under test,
// dcpi/internal/* included (the import-path prefix is what Go checks).
module dcpi/bench

go 1.22

require dcpi v0.0.0

replace dcpi => ../
