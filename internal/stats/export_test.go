package stats

// Test-only access for the external stats_test package, whose parity
// tests need generators that import stats themselves.
var (
	ClassifyFits          = classifyFits
	HasTwoDistinctAtLeast = hasTwoDistinctAtLeast
	SamplePowerLaw        = samplePowerLaw
	SampleGeometric       = sampleGeometric
)
