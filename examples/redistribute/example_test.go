package main

// Example runs the program and pins what it prints: a block-to-cyclic
// redistribution verified after both routines. It prints no timings, so the
// output is the same on every run.
func Example() {
	main()
	// Output:
	// redistributing 288 elements from block to cyclic layout over 6 ranks
	//   MPICH adaptive     cyclic layout verified: OK
	//   generated routine  cyclic layout verified: OK
}
