package main

// Example runs the program and pins what it prints: three wirings of one
// cluster, planned and simulated. Every time it reports is simulated, so the
// output is the same on every run.
func Example() {
	main()
	// Output:
	// planning 16 machines / 4 switches, msize 128KB, 100 Mbps links
	//
	// wiring                   load  peak Mbps      generated   LAM baseline
	// chain, 4 per switch        64      375.0        754.6ms       1107.5ms
	// star,  4 per switch        48      500.0        560.8ms        827.9ms
	// chain, 8+8 at ends         64      375.0        762.6ms       1107.5ms
	//
	// lower load and higher peak are better; the generated routine tracks the peak.
}
