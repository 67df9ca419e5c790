// Command benchmark is the repository's performance benchmark: four
// fixed-schedule workloads against an in-process serving engine, ten
// end-to-end metrics per workload, and a per-layer ledger timed from
// outside the packages it measures. BENCHMARK.json at the repository
// root names the workloads and metrics; README.md in this directory
// defines them.
//
// The driver runs, from the root of a checkout,
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// which builds this package and executes it. The last line of standard
// output is one JSON object {correct, attempted, failed, metrics};
// everything a person reads goes to standard error. The exit code is
// non-zero when an output was wrong.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

// clientCPUs is GOMAXPROCS for every run: the reference box has two
// cores, and no workload drives more than two client goroutines.
const clientCPUs = 2

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	aa       int
	smoke    bool
}

var errWrong = errors.New("an output was wrong")

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the OD pool and of every op list")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "run length the fixed op counts are sized for")
	flag.IntVar(&o.trace, "trace", 0, "1: one traced pass, per-layer metrics; 0: untraced passes, end-to-end metrics")
	flag.IntVar(&o.aa, "aa", 0, "run every workload N times as the driver would, each on another seed, and report the spread")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny world, one pass, every workload traced and untraced")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(clientCPUs)
	var err error
	if o.aa > 0 {
		err = runAA(o, os.Stderr)
	} else {
		err = run(o, env{scale: "ci", scratch: "benchmark/out"}, os.Stdout, os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// run sets the world up, runs the selected workloads and writes one
// result line per workload to out.
func run(o options, e env, out, log io.Writer) error {
	todo := specs
	if o.workload != "all" {
		sp, ok := specByName(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		todo = []spec{sp}
	}
	if o.smoke {
		e.scale = "bench"
	}
	wd, err := e.setUp()
	if err != nil {
		return err
	}
	wd.seedInputs(o.seed)
	fmt.Fprintf(log, "world %s (city seed %d): %d vertices, %d held-out trips, artifact %d KB, set-up %.3f s; GOMAXPROCS %d, WAL sync none\n",
		e.scale, worldSeed, wd.road.NumVertices(), len(wd.heldOut), len(wd.artifact)>>10, wd.setupS, clientCPUs)

	wrong := false
	for _, sp := range todo {
		sp = sp.scaled(o.seconds)
		if sp.ingest && sp.ops > len(wd.batches) {
			return fmt.Errorf("%s needs %d ingest batches, the world has %d", sp.name, sp.ops, len(wd.batches))
		}
		if o.smoke {
			sp = sp.smoke()
		}
		if o.trace == 0 || o.smoke {
			rep, err := e.measure(wd, sp, o.seed, log)
			if err != nil {
				return err
			}
			rep.print(log, sp.name, endToEnd, true)
			if err := emit(out, rep); err != nil {
				return err
			}
			wrong = wrong || !rep.Correct
		}
		if o.trace == 1 || o.smoke {
			rep, err := e.traceRun(wd, sp, o.seed, log)
			if err != nil {
				return err
			}
			rep.print(log, sp.name, perLayer, false)
			if err := emit(out, rep); err != nil {
				return err
			}
			wrong = wrong || !rep.Correct
		}
	}
	if wrong {
		return errWrong
	}
	return nil
}

func emit(out io.Writer, rep report) error {
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
