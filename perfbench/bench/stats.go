package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"
)

// Lat collects latency samples of one operation type. Safe for
// concurrent use by pipelined callers.
//
// The closed loop repeats the same inputs, and each sample is filed
// under its input's key. Q is taken over each key's best (lowest)
// latency: on a shared machine a repeat that a neighbour slowed down is
// noise, while a change in the program moves every repeat of an input.
// Raw is taken over every sample.
type Lat struct {
	mu   sync.Mutex
	ms   []float64
	best map[int]float64
}

// Add records one sample of an input that is not repeated.
func (l *Lat) Add(d time.Duration) { l.AddKey(-1-l.N(), d) }

// AddKey records one sample of the input key.
func (l *Lat) AddKey(key int, d time.Duration) {
	v := float64(d) / float64(time.Millisecond)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ms = append(l.ms, v)
	if l.best == nil {
		l.best = make(map[int]float64)
	}
	if b, ok := l.best[key]; !ok || v < b {
		l.best[key] = v
	}
}

// N is the sample count.
func (l *Lat) N() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ms)
}

// Keys is the number of distinct inputs sampled.
func (l *Lat) Keys() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.best)
}

// Q returns the q-quantile (nearest rank) of the inputs' best
// latencies in milliseconds, 0 without samples.
func (l *Lat) Q(q float64) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	best := make([]float64, 0, len(l.best))
	for _, v := range l.best {
		best = append(best, v)
	}
	return quantile(best, q)
}

// Raw returns the q-quantile of every sample in milliseconds.
func (l *Lat) Raw(q float64) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return quantile(l.ms, q)
}

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median of a small set of repeated measurements.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// minOf is the best of a small set of repeated measurements.
func minOf(xs []float64) float64 { return quantile(xs, 0) }

// Ops counts attempted and failed operations per op type.
type Ops struct {
	mu     sync.Mutex
	order  []string
	counts map[string]*[2]int
}

// NewOps returns counters pre-registered for the given op names, so
// every op type is reported even when a run attempts none.
func NewOps(names ...string) *Ops {
	o := &Ops{counts: make(map[string]*[2]int)}
	for _, n := range names {
		o.get(n)
	}
	return o
}

func (o *Ops) get(name string) *[2]int {
	c, ok := o.counts[name]
	if !ok {
		c = new([2]int)
		o.counts[name] = c
		o.order = append(o.order, name)
	}
	return c
}

// Done records one attempt of op; a non-nil err counts it as failed.
func (o *Ops) Done(op string, err error) {
	o.mu.Lock()
	c := o.get(op)
	c[0]++
	if err != nil {
		c[1]++
	}
	o.mu.Unlock()
}

// Totals sums attempts and failures over every op type.
func (o *Ops) Totals() (attempted, failed int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, c := range o.counts {
		attempted += c[0]
		failed += c[1]
	}
	return attempted, failed
}

// Print writes one line per op type.
func (o *Ops) Print(w io.Writer) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, n := range o.order {
		c := o.counts[n]
		fmt.Fprintf(w, "ops %-16s attempted=%d failed=%d\n", n, c[0], c[1])
	}
}

// Oracle collects failed correctness checks. The first few messages are
// kept for the report; every failure is counted.
type Oracle struct {
	mu    sync.Mutex
	fails int
	msgs  []string
}

// Failf records one failed check.
func (o *Oracle) Failf(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.fails++
	if len(o.msgs) < 20 {
		o.msgs = append(o.msgs, fmt.Sprintf(format, args...))
	}
}

// Check records a failed check when ok is false.
func (o *Oracle) Check(ok bool, format string, args ...any) {
	if !ok {
		o.Failf(format, args...)
	}
}

// Failed reports the number of failed checks.
func (o *Oracle) Failed() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.fails
}

// Print writes the kept failure messages.
func (o *Oracle) Print(w io.Writer) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, m := range o.msgs {
		fmt.Fprintf(w, "ORACLE FAILED: %s\n", m)
	}
	if o.fails > len(o.msgs) {
		fmt.Fprintf(w, "ORACLE FAILED: ... %d more\n", o.fails-len(o.msgs))
	}
}
