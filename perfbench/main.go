// Command perfbench is the repository's benchmark. It runs one named
// workload of serial simulations through the simulator's public API and
// prints, as its last line, one JSON object with the end-to-end metrics
// (-trace 0) or the per-layer metrics (-trace 1). Every simulation's output
// is checked; a failed check makes the command exit 1.
//
//	bash perfbench/run.sh --workload regular --seed 1 --seconds 40 --trace 0
//
// run.sh builds it and runs it from the repository root. NOTES.md
// describes the workloads and the metrics.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: regular, irregular or lensed")
		seed    = flag.Int64("seed", 1, "seed for the order simulations run in")
		seconds = flag.Float64("seconds", 40, "how long to measure")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
		want    = flag.String("expected", "perfbench/expected.json", "committed simulation results to check against")
		spanDir = flag.String("spans", "", "directory to write the traced pass's spans to (none when empty)")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	// More threads than CPUs would time the OS scheduler, not the
	// simulator.
	procs, cpus := runtime.GOMAXPROCS(0), runtime.NumCPU()
	if procs > cpus {
		fmt.Fprintf(os.Stderr, "perfbench: GOMAXPROCS=%d exceeds the %d CPUs available; refusing to run\n", procs, cpus)
		return 2
	}
	chk, err := loadChecker(*want)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Printf("host: go=%s nproc=%d gomaxprocs=%d workers=1 workload=%s seed=%d seconds=%g trace=%d\n",
		runtime.Version(), cpus, procs, w.name, *seed, *seconds, *trace)

	calibrateClock()
	b := &bench{w: w, rng: rand.New(rand.NewSource(*seed)), chk: chk,
		deadline: nanotime() + int64(*seconds*1e9)}
	table := endToEnd
	var vals map[string]float64
	if *trace == 1 {
		table = perLayer
		var spans spanLog
		vals, err = b.measureTraced(&spans)
		if *spanDir != "" {
			path := filepath.Join(*spanDir, fmt.Sprintf("%s-seed%d.json", w.name, *seed))
			if werr := spans.writeFile(path); werr != nil {
				fmt.Fprintln(os.Stderr, "perfbench: writing spans:", werr)
			}
		}
	} else {
		vals, err = b.measure()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if b.failed > 0 {
			// A wrong output still reports the tally, marked incorrect.
			res := result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]value{}}
			if werr := res.write(os.Stdout); werr != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", werr)
			}
		}
		return 1
	}
	res, err := newResult(table, vals, b.attempted, b.failed)
	if err == nil {
		err = res.write(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}
