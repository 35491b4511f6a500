// Package floatfix is a lint fixture: true positives, a clean case, and
// a suppressed case for the floateq analyzer.
package floatfix

// Same compares floats exactly. (true positive)
func Same(a, b float64) bool {
	return a == b
}

// Changed compares floats exactly with a literal. (true positive)
func Changed(xs []float64) bool {
	return xs[0] != 1.0
}

// IntsAreFine compares integers. (clean)
func IntsAreFine(a, b int) bool {
	return a == b
}

// Suppressed documents why its exact comparison is acceptable.
func Suppressed(v float64) bool {
	//lint:ignore floateq fixture demonstrating a justified sentinel comparison
	return v == -1
}
