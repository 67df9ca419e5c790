package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// manifest is the part of BENCHMARK.json an A/A run needs.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAA measures the benchmark against itself the way the driver does:
// o.aa runs of every workload, each a fresh process on another seed,
// then for every end-to-end metric the distance between the first and
// third quartile as a share of the median. A spread above the metric's
// bound fails (the driver would refuse the benchmark); one above a
// third of the bound is marked wide. setup_s is exempt from the spread
// rule, as it is in the driver. The table is written to standard
// output as Markdown; AA.md keeps one.
func runAA(o options, log io.Writer) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// values[workload][metric] collects one value per run.
	values := map[string]map[string][]float64{}
	for i := 0; i < o.aa; i++ {
		for _, w := range m.Workloads {
			if o.workload != "all" && o.workload != w.Name {
				continue
			}
			seed := o.seed + int64(i)
			cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.Itoa(o.seconds), "--trace", "0")
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, log
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var rep report
			if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", w.Name, seed, err)
			}
			if !rep.Correct || rep.Failed > 0 {
				return fmt.Errorf("%s seed %d: %d of %d operations failed", w.Name, seed, rep.Failed, rep.Attempted)
			}
			if values[w.Name] == nil {
				values[w.Name] = map[string][]float64{}
			}
			for name, v := range rep.Metrics {
				values[w.Name][name] = append(values[w.Name][name], v.Value)
			}
			fmt.Fprintf(log, "aa: run %d/%d %s seed %d ok\n", i+1, o.aa, w.Name, seed)
		}
	}

	failed := 0
	fmt.Printf("%d runs per workload, seeds %d..%d, --seconds %d\n\n", o.aa, o.seed, o.seed+int64(o.aa)-1, o.seconds)
	fmt.Println("| workload | metric | unit | median | q1 | q3 | IQR/median | (max-min)/median | bound | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|")
	for _, w := range m.Workloads {
		for _, d := range m.EndToEnd {
			vs := values[w.Name][d.Name]
			if len(vs) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(vs)
			spread, span := (q3-q1)/q2, (slices.Max(vs)-slices.Min(vs))/q2
			verdict := "ok"
			switch {
			case d.Name == "setup_s":
				verdict = "exempt"
			case spread > d.Bound:
				verdict = "FAIL"
				failed++
			case spread > d.Bound/3:
				verdict = "wide"
			}
			fmt.Printf("| %s | %s | %s | %.6g | %.6g | %.6g | %.2f%% | %.2f%% | %.1f%% | %s |\n",
				w.Name, d.Name, d.Unit, q2, q1, q3, 100*spread, 100*span, 100*d.Bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d metrics spread wider than their bound", failed)
	}
	return nil
}
