package harness

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/aapc-sched/aapcsched/internal/alltoall"
	"github.com/aapc-sched/aapcsched/internal/topology"
)

// The commands under cmd/ share one vocabulary for naming a cluster, a
// routine and a message size; it is resolved here and nowhere else.

// LoadTopology resolves the -file / -topo / -wiring flags: a topology DSL
// file wins over a preset name (see Preset). With wiring the file is raw
// cabling, cycles and redundant cables allowed, and the forwarding tree is
// derived from it; blocked counts the cables that tree leaves out.
func LoadTopology(file, preset string, wiring bool) (g *topology.Graph, blocked int, err error) {
	switch {
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, 0, err
		}
		defer f.Close()
		if !wiring {
			g, err := topology.Parse(f)
			return g, 0, err
		}
		w, err := topology.ParseWiring(f)
		if err != nil {
			return nil, 0, err
		}
		g, err := w.SpanningTree()
		return g, w.BlockedLinks(), err
	case preset != "":
		g, err := Preset(preset)
		return g, 0, err
	}
	return nil, 0, fmt.Errorf("need -file or -topo (see -help)")
}

// Routine resolves an algorithm name to its all-to-all routine on g: "ours"
// is the generated routine, every blocking step bounded by deadline when it
// is positive; "lam" and "mpich" are the two library baselines.
func Routine(g *topology.Graph, name string, deadline time.Duration) (alltoall.Func, error) {
	switch name {
	case "ours":
		sc, err := CompileRoutine(g, alltoall.PairwiseSync)
		if err != nil {
			return nil, err
		}
		return sc.FnTimeout(deadline), nil
	case "lam":
		return alltoall.Simple, nil
	case "mpich":
		return alltoall.MPICH, nil
	}
	return nil, fmt.Errorf("unknown algorithm %q (want ours, lam or mpich)", name)
}

// msizeUnits are the suffixes ParseMsize reads, each before any suffix of
// it ("KB" before "B").
var msizeUnits = []struct {
	suffix string
	mult   int
}{{"KB", 1 << 10}, {"MB", 1 << 20}, {"K", 1 << 10}, {"M", 1 << 20}, {"B", 1}}

// ParseMsize reads a positive message size as FormatMsize prints it ("100B",
// "64KB", "1MB"), or as "64K", "1M" or a plain byte count.
func ParseMsize(s string) (int, error) {
	num, mult := s, 1
	for _, u := range msizeUnits {
		if n, ok := strings.CutSuffix(s, u.suffix); ok {
			num, mult = n, u.mult
			break
		}
	}
	v, err := strconv.Atoi(num)
	if err != nil || v <= 0 || v > math.MaxInt/mult {
		return 0, fmt.Errorf("bad message size %q", s)
	}
	return v * mult, nil
}

// ParseMsizes reads a comma-separated list of message sizes; the empty
// string is the empty list.
func ParseMsizes(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := ParseMsize(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
