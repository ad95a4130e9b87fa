// Package harness reproduces the paper's evaluation (Section 6): the three
// experimental topologies of Fig. 5, the message-size sweeps behind
// Figs. 6-8, and the table/series rendering that mirrors what the paper
// reports, all running on the simnet substrate.
package harness

import (
	"fmt"
	"strings"

	"github.com/aapc-sched/aapcsched/internal/topology"
)

// Fig1 builds the paper's running example cluster (Fig. 1): 6 machines on
// 4 switches with AAPC load 9.
func Fig1() *topology.Graph {
	g := topology.New()
	s0 := g.MustAddSwitch("s0")
	s1 := g.MustAddSwitch("s1")
	s2 := g.MustAddSwitch("s2")
	s3 := g.MustAddSwitch("s3")
	n := make([]int, 6)
	for i := range n {
		n[i] = g.MustAddMachine(fmt.Sprintf("n%d", i))
	}
	g.MustConnect(s0, n[0])
	g.MustConnect(s0, n[1])
	g.MustConnect(s0, s2)
	g.MustConnect(s2, n[2])
	g.MustConnect(s1, s0)
	g.MustConnect(s1, s3)
	g.MustConnect(s1, n[5])
	g.MustConnect(s3, n[3])
	g.MustConnect(s3, n[4])
	return g.MustValidate()
}

// TopologyA builds Fig. 5(a): 24 machines on a single switch (the Dell
// PowerEdge 2324). The bottleneck links are the machine links (load 23), so
// the peak aggregate throughput is 24 x B.
func TopologyA() *topology.Graph {
	g := topology.New()
	s := g.MustAddSwitch("s0")
	for i := 0; i < 24; i++ {
		m := g.MustAddMachine(fmt.Sprintf("n%d", i))
		g.MustConnect(s, m)
	}
	return g.MustValidate()
}

// TopologyB builds Fig. 5(b): 32 machines, 8 per switch, with switches S1,
// S2, S3 each connected to S0 (a star of switches). The bottleneck links are
// the three inter-switch links (load 8 x 24 = 192); peak aggregate
// throughput is 32*31*B/192 ≈ 5.17 B, matching the peak line of Fig. 7.
func TopologyB() *topology.Graph {
	return multiSwitch32(func(g *topology.Graph, s [4]int) {
		g.MustConnect(s[0], s[1])
		g.MustConnect(s[0], s[2])
		g.MustConnect(s[0], s[3])
	})
}

// TopologyC builds Fig. 5(c): 32 machines, 8 per switch, with the switches
// in a linear chain S0-S1-S2-S3. The bottleneck is the middle link
// (load 16 x 16 = 256); peak aggregate throughput is 32*31*B/256 ≈ 3.88 B,
// matching the peak line of Fig. 8.
func TopologyC() *topology.Graph {
	return multiSwitch32(func(g *topology.Graph, s [4]int) {
		g.MustConnect(s[0], s[1])
		g.MustConnect(s[1], s[2])
		g.MustConnect(s[2], s[3])
	})
}

// TopologyBGiga is topology (b) upgraded with 10x (gigabit-class) uplinks
// between the switches — the heterogeneous-bandwidth extension. The
// inter-switch links stop being the bottleneck (weighted load 19.2 versus 31
// on the machine links), raising the weighted peak aggregate throughput from
// 516.7 to 3200 Mbps at B = 100 Mbps.
func TopologyBGiga() *topology.Graph {
	return multiSwitch32(func(g *topology.Graph, s [4]int) {
		g.MustConnectSpeed(s[0], s[1], 10)
		g.MustConnectSpeed(s[0], s[2], 10)
		g.MustConnectSpeed(s[0], s[3], 10)
	})
}

// multiSwitch32 builds a 32-machine cluster over 4 switches (8 machines
// each) with the inter-switch wiring supplied by connect. Machine ranks run
// n0..n7 on S0, n8..n15 on S1, n16..n23 on S2 and n24..n31 on S3, matching
// the paper's figure labels.
func multiSwitch32(connect func(g *topology.Graph, s [4]int)) *topology.Graph {
	g := topology.New()
	var s [4]int
	for i := range s {
		s[i] = g.MustAddSwitch(fmt.Sprintf("s%d", i))
	}
	connect(g, s)
	for i := 0; i < 32; i++ {
		m := g.MustAddMachine(fmt.Sprintf("n%d", i))
		g.MustConnect(s[i/8], m)
	}
	return g.MustValidate()
}

// presets are the named experiment topologies, in the order help texts list
// them: "a", "b", "c" for Fig. 5, "bg" for (b) with fast uplinks, and "fig1"
// for the running example.
var presets = []struct {
	name  string
	build func() *topology.Graph
}{{"a", TopologyA}, {"b", TopologyB}, {"c", TopologyC}, {"bg", TopologyBGiga}, {"fig1", Fig1}}

// PresetList names every preset Preset accepts, for help and error texts.
func PresetList() string {
	names := make([]string, len(presets))
	for i, p := range presets {
		names[i] = p.name
	}
	return strings.Join(names, ", ")
}

// Preset returns a named experiment topology (see PresetList).
func Preset(name string) (*topology.Graph, error) {
	for _, p := range presets {
		if p.name == name {
			return p.build(), nil
		}
	}
	return nil, fmt.Errorf("harness: unknown topology preset %q (want one of %s)", name, PresetList())
}
