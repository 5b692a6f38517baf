package sim

// The reference engine and the hub fixture, for the equivalence tests of
// package sim_test.
var (
	RunReference               = runReference
	ReferenceZeroLoadLatencies = referenceZeroLoadLatencies
	HubTopology                = hubTopology
	HubFlows                   = hubFlows
)
