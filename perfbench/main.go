// Command perfbench runs one workload of the atmcac benchmark and prints
// its figures, ending with one JSON summary line.
//
// Usage:
//
//	perfbench -workload dense-port|fleet-pipelined|cross-shard-ha -seed N -seconds S -trace 0|1 [-dir DIR] [-small]
//
// The Go runtime runs on one P, shared by the client, the servers and
// the garbage collector: each request-response then hands off inside
// the runtime instead of waking a parked thread on another CPU, whose
// wake-up time on a shared virtual machine swings with the host's load.
//
// With -trace 0 the summary carries the end-to-end metrics; with -trace 1
// it carries the per-layer metrics of a traced run. The exit status is 0
// only when every operation succeeded and every oracle held.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"atmcac/perfbench/bench"
)

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: dense-port, fleet-pipelined or cross-shard-ha")
	seed := fs.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	dir := fs.String("dir", ".bench_build/state", "directory for the servers' state files")
	small := fs.Bool("small", false, "shrink every size (self-test scale)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(1)
	res, err := bench.Run(bench.Options{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Dir: *dir, Small: *small, Out: os.Stdout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}
