package main

// Example runs the program and pins what it prints: the schedule, its sync
// plan and three simulated runs on Fig. 1. Every time it reports is
// simulated, so the output is the same on every run.
func Example() {
	main()
	// Output:
	// cluster: cluster{4 switches, 6 machines, 9 links}
	// AAPC load: 9 (=> at least 9 contention-free phases)
	// schedule: 30 messages in 9 phases
	// phase 0: 0->4 1->0 3->5 5->1
	// phase 1: 1->3 2->1 4->5 5->2
	// phase 2: 0->2 2->4 5->0
	// phase 3: 0->3 2->0 3->2
	// phase 4: 0->1 1->4 3->0 4->3
	// phase 5: 1->2 2->3 3->1
	// phase 6: 0->5 4->0
	// phase 7: 1->5 3->4 4->1 5->3
	// phase 8: 2->5 4->2 5->4
	// synchronizations: 46 (down from 168 conflicting pairs)
	//
	// LAM/MPI simple        146.9 ms     214.1 Mbps aggregate
	// MPICH adaptive        118.8 ms     264.8 Mbps aggregate
	// generated routine     106.4 ms     295.7 Mbps aggregate
	//                                    333.3 Mbps (theoretical peak)
}
