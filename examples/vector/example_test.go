package main

// Example runs the program and pins what it prints: an Alltoallv particle
// migration verified cell by cell. It prints no timings, so the output is
// the same on every run.
func Example() {
	main()
	// Output:
	// migrating 51 particles between 6 cells through the scheduled phases
	// every particle arrived at its destination cell intact: OK
}
