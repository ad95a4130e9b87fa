// Command bench is the repository's benchmark: seven workloads, each run as
// freshly set-up passes of interleaved primary, comparator and yardstick
// blocks, every output verified, every layer measured from outside through
// its public functions and counters. BENCHMARK.json at the repository root
// declares the workloads and metrics; README.md in this directory explains
// them.
//
//	bash bench/run.sh --workload a2a_tcp_64k --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh --workload compile --trace 1   # per-layer metrics + spans
//	bash bench/run.sh --check                        # two sets, compared
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// workloads builds the workload table. Values are fresh on every call: a
// workload accumulates the counters of its run.
func workloads() []workload {
	return []workload{
		&a2aWorkload{name: "a2a_tcp_64k", transport: "tcp", msize: 64 << 10, block: 4, rounds: 20,
			yard: func() (yardstick, error) { return newNetYard(a2aRanks, 64<<10, a2aIters) }, yardBlock: 2, yardRefMs: 9},
		&a2aWorkload{name: "a2a_tcp_64b", transport: "tcp", msize: 64, block: 8, rounds: 20,
			yard: func() (yardstick, error) { return newNetYard(a2aRanks, 64, 2*a2aIters) }, yardBlock: 4, yardRefMs: 8},
		&a2aWorkload{name: "a2a_dist_64k", transport: "dist", msize: 64 << 10, block: 4, rounds: 20,
			yard: func() (yardstick, error) { return newNetYard(a2aRanks, 64<<10, a2aIters) }, yardBlock: 2, yardRefMs: 9},
		&a2aWorkload{name: "a2a_shm_1k", transport: "shm", msize: 1 << 10, block: 32, rounds: 12, passes: 9,
			yard: func() (yardstick, error) { return newChanYard(a2aRanks, 1<<10, 4*a2aIters), nil }, yardBlock: 32, yardRefMs: 0.9},
		&compileWorkload{},
		&daemonWorkload{},
		&simWorkload{},
	}
}

func findWorkload(name string) workload {
	for _, w := range workloads() {
		if w.spec().name == name {
			return w
		}
	}
	return nil
}

func main() {
	var cfg config
	var trace int
	var check bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input: payloads, random clusters, daemon key and delta streams")
	flag.Float64Var(&cfg.seconds, "seconds", refSeconds, "scales the fixed op counts: the timed rounds take about this long on the reference box")
	flag.IntVar(&trace, "trace", 0, "1: traced run, prints the per-layer metrics and writes spans under bench/out/")
	flag.BoolVar(&check, "check", false, "run every workload twice and fail if the two sets disagree")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.outDir = "bench/out" // run.sh starts the program in the checkout root

	if check {
		if err := runCheck(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	w := findWorkload(cfg.workload)
	if w == nil || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "bench: need -workload, one of:")
		for _, w := range workloads() {
			fmt.Fprintf(os.Stderr, " %s", w.spec().name)
		}
		fmt.Fprintln(os.Stderr, ", and -seconds > 0")
		os.Exit(2)
	}
	res, err := run(cfg, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	printResult(cfg, res)
}

// printResult prints every metric by name and unit, then the result object
// as the last line.
func printResult(cfg config, res *result) {
	fmt.Printf("# %s seed=%d seconds=%g trace=%v; all traffic crosses the host's loopback interface or shared memory\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	if res.wallClock != "" {
		fmt.Printf("# wall clock on this machine in this minute (no bound, see README.md, Noise): %s\n", res.wallClock)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
