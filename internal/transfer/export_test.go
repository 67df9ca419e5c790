package transfer

// Assemble and EdgeFeatureRows expose the direct Eq. 3 assembly to the
// equivalence tests in package transfer_test.
var (
	Assemble        = assemble
	EdgeFeatureRows = edgeFeatures
)
