package harness

import (
	"reflect"
	"testing"

	"github.com/aapc-sched/aapcsched/internal/simnet"
)

// TestExperimentParallelDeterministic pins the contract of the concurrent
// harness: the report is byte-identical for every Parallel setting, because
// each cell is an isolated deterministic world and rows are assembled in
// serial order.
func TestExperimentParallelDeterministic(t *testing.T) {
	g, err := Preset("a")
	if err != nil {
		t.Fatal(err)
	}
	run := func(parallel int) *Report {
		exp := &Experiment{
			Name:   "det",
			Graph:  g,
			Msizes: []int{8 << 10, 32 << 10},
			Net:    simnet.Config{JitterFrac: 0.2, JitterSeed: 42},
			// Default algorithms: LAM, MPICH, Ours.
			Parallel: parallel,
		}
		rep, err := exp.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	serial := run(1)
	for _, parallel := range []int{0, 2, 7} {
		if rep := run(parallel); !reflect.DeepEqual(serial, rep) {
			t.Errorf("Parallel=%d report differs from serial:\nserial:   %+v\nparallel: %+v",
				parallel, serial.Rows, rep.Rows)
		}
	}
}
