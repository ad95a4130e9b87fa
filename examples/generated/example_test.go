package main

// Example runs the program and pins what it prints: the embedded routine run
// over the in-process transport and verified. It prints no timings, so the
// output is the same on every run.
func Example() {
	main()
	// Output:
	// embedded routine: 6 ranks, 46 synchronization messages
	// all-to-all through the generated routine verified: OK
}
