package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// child runs one workload in a fresh process of this binary and parses the
// result object off the last line of its output.
func child(cfg config, workload string, trace int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child to exit
	if err != nil {
		return nil, fmt.Errorf("%s -trace %d: %w", workload, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s -trace %d: last line is not a result: %w", workload, trace, err)
	}
	return &res, nil
}

// runCheck runs two sets of the same binary — every workload untraced and
// traced, set A in full and then set B — and fails if an end-to-end metric
// differs between the sets by more than its bound in BENCHMARK.json, if an
// exact counter differs at all, or if any op failed. It prints each set's
// own noise reading (driver.pass_spread), its yardstick and the host probes, so
// that a noisy box can be told from a real change.
func runCheck(cfg config) error {
	m, err := readManifest("BENCHMARK.json")
	if err != nil {
		return err
	}
	type set map[string][2]*result // workload -> untraced, traced
	sets := [2]set{{}, {}}
	for i := range sets {
		for _, w := range m.Workloads {
			var pair [2]*result
			for trace := 0; trace < 2; trace++ {
				fmt.Fprintf(os.Stderr, "check: set %c: %s -trace %d\n", 'A'+i, w.Name, trace)
				if pair[trace], err = child(cfg, w.Name, trace); err != nil {
					return err
				}
			}
			sets[i][w.Name] = pair
		}
	}

	exact := make(map[string]bool, len(exactLayer))
	for _, n := range exactLayer {
		exact[n] = true
	}
	bad := 0
	for _, w := range m.Workloads {
		a, b := sets[0][w.Name], sets[1][w.Name]
		fmt.Printf("\n%s\n", w.Name)
		for _, mm := range m.EndToEnd {
			va, vb := a[0].Metrics[mm.Name].Value, b[0].Metrics[mm.Name].Value
			diff := math.Abs(va-vb) / math.Min(va, vb)
			verdict := "ok"
			if !(diff <= *mm.Bound) { // also catches NaN from a zero or missing value
				verdict = "DIFFERS"
				bad++
			}
			fmt.Printf("  %-28s A %14.6g  B %14.6g  %-5s diff %6.3f  bound %.3f  %s\n",
				mm.Name, va, vb, mm.Unit, diff, *mm.Bound, verdict)
		}
		for _, mm := range m.PerLayer {
			va, vb := a[1].Metrics[mm.Name].Value, b[1].Metrics[mm.Name].Value
			if exact[mm.Name] && va != vb {
				fmt.Printf("  %-28s A %14.6g  B %14.6g  exact counter DIFFERS\n", mm.Name, va, vb)
				bad++
			}
		}
		for i, s := range [][2]*result{a, b} {
			for _, r := range s {
				if !r.Correct || r.Failed > 0 {
					fmt.Printf("  set %c: %d of %d ops failed\n", 'A'+i, r.Failed, r.Attempted)
					bad++
				}
			}
			l := s[1].Metrics
			fmt.Printf("  set %c noise: pass_spread %.3f  yardstick p50 %.4g ms  memcpy %.0f MB/s  loopback rtt %.1f us\n", 'A'+i,
				l["driver.pass_spread"].Value, l["driver.yard_p50_ms"].Value, l["host.memcpy_MBps"].Value, l["host.loopback_rtt_us"].Value)
		}
	}
	if bad > 0 {
		return fmt.Errorf("check: the two sets disagree on %d counts or metrics", bad)
	}
	fmt.Println("\ncheck: the two sets agree within every bound; every exact counter is identical")
	return nil
}
