//go:build !race

package mc

// raceBuild reports a -race test binary, where the ISS runs an order of
// magnitude slower.
const raceBuild = false
