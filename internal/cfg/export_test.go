package cfg

// CheckReference exports checkReference to the external tests.
var CheckReference = checkReference
