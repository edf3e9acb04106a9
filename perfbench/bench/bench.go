// Package bench is the atmcac benchmark: it starts the CAC servers
// in-process on loopback (wired as cmd/cacd wires them), drives one
// workload as a closed loop, checks the program's answers against
// properties the method must have and against the client's own ledger,
// and reports end-to-end metrics — or, in a traced run, per-layer ones.
package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Workloads lists the benchmark's workloads.
var Workloads = []string{"dense-port", "fleet-pipelined", "cross-shard-ha"}

// Options configures one run.
type Options struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	// Dir is the state root; each run works in a fresh subdirectory.
	Dir string
	// Small shrinks every size so the whole workload runs in seconds
	// (the self-test); the oracles are unchanged.
	Small bool
	Out   io.Writer
}

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the run's summary line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// EndToEnd lists the end-to-end metrics with their units, in report
// order.
var EndToEnd = []struct{ Name, Unit string }{
	{"setup_s", "s"},
	{"connect_p50_ms", "ms"},
	{"connect_p90_ms", "ms"},
	{"release_p50_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"batch_p50_ms", "ms"},
	{"ops_s", "ops/s"},
	{"recover_s", "s"},
	{"heap_mb", "MiB"},
}

// run is the shared state of one benchmark run.
type run struct {
	opts Options
	out  io.Writer
	dir  string
	rec  *Recorder // nil in an untraced run
	ops  *Ops
	orc  Oracle

	// lat holds client-observed latencies with recording off; tlat the
	// same operations while the recorder was on (traced runs only).
	lat, tlat map[string]*Lat
	calls     []call // traced client operations, for attribution
	callsMu   sync.Mutex

	setupS, recoverS, heapMB []float64
	calib                    *Lat // calibration kernel samples (calib.go)

	rounds            int           // rounds run so far, over every measured phase
	roundMS           *Lat          // each round's duration, keyed by the round's inputs
	roundOps          map[int]int64 // operations completed per round key
	measured          time.Duration // the rounds' total duration
	done              atomic.Int64  // operations completed in the measured phase
	untracedOps       int64
	untracedGC        uint32
	readmitMS, scanMS []float64

	layer map[string]float64
}

// call is one traced client operation.
type call struct {
	op    string
	conn  string
	start time.Time
	dur   time.Duration
}

func (c call) end() time.Time { return c.start.Add(c.dur) }

// latency op names; every workload reports all of them.
const (
	opConnect  = "connect"
	opRelease  = "release"
	opQuery    = "query"
	opList     = "list"
	opBatch    = "batch-setup"
	opBatchTD  = "batch-teardown"
	opLoad     = "load"
	opRestart  = "restart"
	opSimCheck = "sim-replay"
)

// Run executes one workload and returns its result. A returned error
// means the benchmark itself could not run (bad options, a server that
// would not start); failed operations and oracles are in the Result.
func Run(opts Options) (*Result, error) {
	if opts.Out == nil {
		opts.Out = io.Discard
	}
	r := &run{
		opts:  opts,
		out:   opts.Out,
		ops:   NewOps(opConnect, opQuery, opRelease, opBatch, opBatchTD, opLoad, opRestart),
		lat:   make(map[string]*Lat),
		tlat:  make(map[string]*Lat),
		layer: make(map[string]float64),

		calib:    &Lat{},
		roundMS:  &Lat{},
		roundOps: make(map[int]int64),
	}
	for _, op := range []string{opConnect, opRelease, opQuery, opList, opBatch, opBatchTD} {
		r.lat[op], r.tlat[op] = &Lat{}, &Lat{}
	}
	if opts.Trace {
		r.rec = &Recorder{}
	}
	r.dir = filepath.Join(opts.Dir, fmt.Sprintf("%s-%d-%d", opts.Workload, opts.Seed, os.Getpid()))
	if err := os.RemoveAll(r.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.dir)
	PrintEnv(r.out, r.dir)
	steal := startSteal()
	fmt.Fprintf(r.out, "workload %s seed %d seconds %g trace %v small %v\n",
		opts.Workload, opts.Seed, opts.Seconds, opts.Trace, opts.Small)
	var err error
	switch opts.Workload {
	case "dense-port":
		err = runDense(r)
	case "fleet-pipelined":
		err = runFleet(r)
	case "cross-shard-ha":
		err = runCross(r)
	default:
		return nil, fmt.Errorf("unknown workload %q (one of %v)", opts.Workload, Workloads)
	}
	if err != nil {
		r.orc.Failf("%v", err)
	}
	if r.rec != nil {
		if err := r.microLayers(); err != nil {
			r.orc.Failf("core microrun: %v", err)
		}
		if err := r.rec.WriteSpans(filepath.Join(opts.Dir, fmt.Sprintf("spans-%s-%d.jsonl", opts.Workload, opts.Seed))); err != nil {
			fmt.Fprintf(r.out, "spans not written: %v\n", err)
		}
	}
	res := r.result()
	steal.Print(r.out)
	return res, nil
}

func (r *run) reps() int {
	if r.opts.Small {
		return 1
	}
	return 3
}

// timed runs one client operation, counts it, and files its latency
// under its input key and the recorder state at its start.
func (r *run) timed(op, conn string, key int, fn func() error) error {
	traced := r.rec != nil && r.rec.on.Load()
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	r.ops.Done(op, err)
	if err != nil {
		return fmt.Errorf("%s %s: %w", op, conn, err)
	}
	r.done.Add(1)
	if traced {
		r.tlat[op].AddKey(key, d)
		r.callsMu.Lock()
		r.calls = append(r.calls, call{op: op, conn: conn, start: t0, dur: d})
		r.callsMu.Unlock()
	} else {
		r.lat[op].AddKey(key, d)
	}
	return nil
}

// timeSetup measures one set-up and the live heap it leaves.
func (r *run) timeSetup(fn func() error) error {
	r.calibrate()
	t0 := time.Now()
	if err := fn(); err != nil {
		return err
	}
	r.setupS = append(r.setupS, time.Since(t0).Seconds())
	// Two cycles: the first leaves sync.Pool contents in the victim cache.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapMB = append(r.heapMB, float64(ms.HeapAlloc)/(1<<20))
	return nil
}

// batchSample files a set-up batch that began at t0 as a batch-setup
// sample of the given key.
func (r *run) batchSample(key int, t0 time.Time) { r.lat[opBatch].AddKey(key, time.Since(t0)) }

// restarted files one restart that began at t0.
func (r *run) restarted(t0 time.Time) {
	r.recoverS = append(r.recoverS, time.Since(t0).Seconds())
}

// phases alternates the measured closed loop with timed restarts: the
// run's seconds are split into reps() chunks, each followed by restart,
// so latency and recovery samples both span the whole run and a slow
// stretch of the machine weighs on all of them alike. Round k runs the
// inputs of key k mod cycle, so every input is repeated as often as the
// run's length allows.
func (r *run) phases(cycle int, round func(key int) error, restart func() error) error {
	n := r.reps()
	for i := 0; i < n; i++ {
		r.calibrate()
		if err := r.measure(cycle, r.opts.Seconds/float64(n), round); err != nil {
			return err
		}
		err := restart()
		r.ops.Done(opRestart, err)
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
	}
	return nil
}

// measure repeats whole rounds for seconds. In a traced run the
// recorder alternates on and off in short blocks, so traced and
// untraced latencies sample the same stretch of time; their difference
// is the tracing overhead.
func (r *run) measure(cycle int, seconds float64, round func(key int) error) error {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	stop := make(chan struct{})
	var toggler sync.WaitGroup
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gcAt, doneAt := ms.NumGC, r.done.Load()
	if r.rec != nil {
		toggler.Add(1)
		go func() {
			defer toggler.Done()
			tick := time.NewTicker(200 * time.Millisecond)
			defer tick.Stop()
			for on := false; ; on = !on {
				select {
				case <-stop:
					r.rec.SetOn(false)
					return
				case <-tick.C:
				}
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				if !on {
					r.untracedGC += ms.NumGC - gcAt
					r.untracedOps += r.done.Load() - doneAt
				}
				gcAt, doneAt = ms.NumGC, r.done.Load()
				r.rec.SetOn(!on)
			}
		}()
	}
	var err error
	for ; err == nil && time.Now().Before(deadline); r.rounds++ {
		key := r.rounds % cycle
		before := r.done.Load()
		t0 := time.Now()
		if err = round(key); err == nil {
			d := time.Since(t0)
			r.measured += d
			r.roundMS.AddKey(key, d)
			r.roundOps[key] = r.done.Load() - before
		}
	}
	close(stop)
	toggler.Wait()
	if r.rec == nil {
		runtime.ReadMemStats(&ms)
		r.untracedGC += ms.NumGC - gcAt
		r.untracedOps += r.done.Load() - doneAt
	}
	return err
}

// result assembles the summary: end-to-end metrics in an untraced run,
// per-layer metrics in a traced one.
func (r *run) result() *Result {
	res := &Result{Metrics: make(map[string]Metric)}
	e2e := r.endToEnd()
	for _, m := range EndToEnd {
		fmt.Fprintf(r.out, "e2e %-16s %12.4f %s\n", m.Name, e2e[m.Name], m.Unit)
	}
	if r.rec == nil {
		for _, m := range EndToEnd {
			v := e2e[m.Name]
			r.orc.Check(v > 0, "end-to-end metric %s has no measurement", m.Name)
			res.Metrics[m.Name] = Metric{Value: v, Unit: m.Unit}
		}
	} else {
		r.layer["core.readmit_ms"] = median(r.readmitMS)
		r.layer["journal.scan_ms"] = median(r.scanMS)
		r.layer["trace.overhead_ms"] = r.tlat[opConnect].Raw(0.5) - r.lat[opConnect].Raw(0.5)
		fmt.Fprintf(r.out, "trace overhead: connect latency p50 traced %.4f ms - untraced %.4f ms = %.4f ms\n",
			r.tlat[opConnect].Raw(0.5), r.lat[opConnect].Raw(0.5), r.layer["trace.overhead_ms"])
		for _, m := range PerLayer {
			v := r.layer[m.Name]
			fmt.Fprintf(r.out, "layer %-30s %14.4f %s\n", m.Name, v, m.Unit)
			res.Metrics[m.Name] = Metric{Value: v, Unit: m.Unit}
		}
	}
	r.ops.Print(r.out)
	r.orc.Print(r.out)
	res.Attempted, res.Failed = r.ops.Totals()
	res.Correct = r.orc.Failed() == 0
	return res
}

// endToEnd computes the figures from the untraced samples and prints
// every percentile with its sample count. Percentiles are over the
// inputs' best repeats, set-up and recovery the best of their three
// samples; every time is scaled to the reference speed (calib.go). The
// live heap is the median of its three samples.
func (r *run) endToEnd() map[string]float64 {
	k := r.speedScale()
	for _, op := range []string{opConnect, opRelease, opQuery, opList, opBatch, opBatchTD} {
		l := r.lat[op]
		fmt.Fprintf(r.out, "lat %-15s scaled p50=%.4fms p90=%.4fms; best repeat of %d inputs p50=%.4fms p90=%.4fms; every sample p50=%.4fms p90=%.4fms max=%.4fms n=%d",
			op, k*l.Q(0.5), k*l.Q(0.9), l.Keys(), l.Q(0.5), l.Q(0.9), l.Raw(0.5), l.Raw(0.9), l.Raw(1), l.N())
		if t := r.tlat[op]; t.N() > 0 {
			fmt.Fprintf(r.out, "  traced p50=%.4fms n=%d", t.Raw(0.5), t.N())
		}
		fmt.Fprintln(r.out)
	}
	fmt.Fprintf(r.out, "setup_s samples %v\nrecover_s samples %v\nheap_mb samples %v\n", r.setupS, r.recoverS, r.heapMB)
	// The loop's rate with every round at its best repeat: the
	// operations of one pass over the round keys over the sum of those
	// rounds' best durations.
	var passOps int64
	var passMS float64
	for key, n := range r.roundOps {
		passOps += n
		passMS += r.roundMS.best[key]
	}
	opsS := 0.0
	if passMS > 0 {
		opsS = float64(passOps) / (passMS / 1000)
		fmt.Fprintf(r.out, "rounds %d over %d round keys; ops/s at the best repeats %.1f, over every round %.1f\n",
			r.rounds, len(r.roundOps), opsS, float64(r.done.Load())/r.measured.Seconds())
	}
	return map[string]float64{
		"setup_s":        k * minOf(r.setupS),
		"connect_p50_ms": k * r.lat[opConnect].Q(0.5),
		"connect_p90_ms": k * r.lat[opConnect].Q(0.9),
		"release_p50_ms": k * r.lat[opRelease].Q(0.5),
		"query_p50_ms":   k * r.lat[opQuery].Q(0.5),
		"batch_p50_ms":   k * r.lat[opBatch].Q(0.5),
		"ops_s":          opsS / k,
		"recover_s":      k * minOf(r.recoverS),
		"heap_mb":        median(r.heapMB),
	}
}

// noteRecovery files a traced restart's re-admission time: recovery
// minus the snapshot load and journal scan timed on the same files.
func (r *run) noteRecovery(nd *node) {
	if r.rec == nil {
		return
	}
	r.readmitMS = append(r.readmitMS, msf(nd.recovery-nd.loadTime-nd.scanTime))
	r.scanMS = append(r.scanMS, msf(nd.scanTime))
}
