package sim

// The reference engine, for the equivalence tests of package sim_test.
var (
	RunReference               = runReference
	ReferenceZeroLoadLatencies = referenceZeroLoadLatencies
)
