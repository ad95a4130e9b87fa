// Command topoinfo analyzes an Ethernet switched cluster description: link
// loads under the AAPC pattern, bottleneck links, the scheduling root and
// its subtree decomposition, and the peak aggregate throughput bound of
// Section 3.
//
// Usage:
//
//	topoinfo -file cluster.topo [-bw Mbps]
//	topoinfo -topo a
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/aapc-sched/aapcsched/internal/harness"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// options collects the command-line configuration.
type options struct {
	file, preset string
	bwMbps       float64
	wiring, dot  bool
}

// bind registers the command's flags on fs.
func (o *options) bind(fs *flag.FlagSet) {
	fs.StringVar(&o.file, "file", "", "topology DSL file")
	fs.StringVar(&o.preset, "topo", "", "topology preset ("+harness.PresetList()+") instead of -file")
	fs.Float64Var(&o.bwMbps, "bw", 100, "link bandwidth in Mbps")
	fs.BoolVar(&o.wiring, "wiring", false, "treat -file as raw cabling (cycles allowed) and derive the forwarding tree first")
	fs.BoolVar(&o.dot, "dot", false, "emit the topology as Graphviz dot and exit")
}

func main() {
	var o options
	o.bind(flag.CommandLine)
	flag.Parse()
	if err := run(&o); err != nil {
		fmt.Fprintln(os.Stderr, "topoinfo:", err)
		os.Exit(1)
	}
}

// run resolves the cluster and prints its analysis, or its dot form.
func run(o *options) error {
	g, blocked, err := harness.LoadTopology(o.file, o.preset, o.wiring)
	if err != nil {
		return err
	}
	if o.wiring && o.file != "" {
		fmt.Printf("spanning tree derived: %d redundant cable(s) blocked\n\n", blocked)
	}
	if o.dot {
		fmt.Print(g.DOT())
		return nil
	}
	return analyze(g, o.bwMbps)
}

// analyze prints the cluster's AAPC analysis.
func analyze(g *topology.Graph, bwMbps float64) error {
	fmt.Printf("cluster: %d machines, %d switches, %d links\n",
		g.NumMachines(), g.NumSwitches(), g.NumLinks())

	fmt.Println("\nlink loads (AAPC pattern):")
	loads := g.LinkLoads()
	maxLoad := g.AAPCLoad()
	for _, ll := range loads {
		marker := ""
		if ll.Load == maxLoad {
			marker = "  <- bottleneck"
		}
		speed := ""
		if s := g.LinkSpeed(ll.Link); s != 1 {
			speed = fmt.Sprintf("  speed %gx", s)
		}
		fmt.Printf("  %-6s -- %-6s  split %2d/%-2d  load %4d%s%s\n",
			g.Node(ll.Link.U).Name, g.Node(ll.Link.V).Name,
			ll.MachinesU, ll.MachinesV, ll.Load, speed, marker)
	}
	fmt.Printf("\nAAPC load (minimum phases): %d\n", maxLoad)

	ri, err := g.FindRoot()
	if err != nil {
		return err
	}
	fmt.Printf("scheduling root: %s\n", g.Node(ri.Root).Name)
	for i, st := range ri.Subtrees {
		fmt.Printf("  t%d (top %s): %d machines %v\n",
			i, g.Node(st.Top).Name, len(st.Machines), st.Machines)
	}
	fmt.Printf("schedule phases |M0|*(|M|-|M0|): %d\n", ri.NumPhases())

	bw := bwMbps * 1e6 / 8
	fmt.Printf("\nbest-case time per byte of msize: %.3g s\n", g.BestCaseTime(1, bw))
	fmt.Printf("peak aggregate throughput: %.1f Mbps (%.1fx link speed)\n",
		g.PeakAggregateThroughput(bw)*8/1e6, g.PeakAggregateThroughput(bw)/bw)
	if !g.Uniform() {
		wb, ratio := g.WeightedBottleneck()
		fmt.Printf("\nheterogeneous link speeds detected:\n")
		fmt.Printf("weighted bottleneck: %s -- %s (load %d / speed %g = %.1f)\n",
			g.Node(wb.Link.U).Name, g.Node(wb.Link.V).Name,
			wb.Load, g.LinkSpeed(wb.Link), ratio)
		fmt.Printf("weighted peak aggregate throughput: %.1f Mbps\n",
			g.WeightedPeakAggregateThroughput(bw)*8/1e6)
	}
	return nil
}
