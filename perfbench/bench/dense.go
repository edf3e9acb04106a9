package bench

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/rtnet"
	"atmcac/internal/sim"
	"atmcac/internal/wire"
	"atmcac/internal/workload"
)

// The dense port is ring node 0's ring output, fed by the node's 16
// terminals: every connection is a one-hop RTnet segment route, so the
// Algorithm 4.1 check at that one port is the whole admission.
const (
	denseRing      = 4
	denseTerminals = 16
	// Budgets D(j,p) in cell times. Generous enough that no seed's set
	// is ever refused: the workload measures the check, not rejections.
	denseD1 = 4096
	denseD2 = 16384
	// chunk is the batch size fleet-pipelined loads its starting set with.
	chunk = 128
)

var denseQueues = map[core.Priority]float64{1: denseD1, 2: denseD2}

// denseCDVs are the source CDVs (cell times) connections arrive with, so
// envelope breakpoints differ from connection to connection.
var denseCDVs = []float64{0, 3, 10, 40, 150}

// denseConns generates n one-hop connections at the dense port: a seeded
// CBR/VBR mix at two priorities, spread over the 16 terminal links, each
// with one of the source CDVs.
func denseConns(seed uint64, label string, n int) ([]core.ConnRequest, []int, error) {
	tpls, err := workload.SampleFleet(workload.NewRNG(seed).Split(label).Uint64(), workload.FleetConfig{
		PCRMin: 0.00005, PCRMax: 0.0005,
	}, n)
	if err != nil {
		return nil, nil, err
	}
	rng := workload.NewRNG(seed).Split(label + "/placement")
	reqs := make([]core.ConnRequest, n)
	terms := make([]int, n)
	for i, t := range tpls {
		term := rng.Intn(denseTerminals)
		terms[i] = term
		reqs[i] = core.ConnRequest{
			ID:        core.ConnID(fmt.Sprintf("%s%05d", label, i)),
			Spec:      t.Spec,
			Priority:  t.Priority,
			Route:     core.Route{{Switch: rtnet.SwitchName(0), In: rtnet.TerminalPort(term), Out: rtnet.RingOutPort}},
			SourceCDV: denseCDVs[rng.Intn(len(denseCDVs))],
		}
	}
	return reqs, terms, nil
}

// batch is the batch-setup size the starting set is loaded with; each
// full batch's latency is a batch_p50_ms sample.
type denseScale struct {
	base, probes, singles, batch int
	simSlots                     uint64
}

func (r *run) denseScale() denseScale {
	if r.opts.Small {
		return denseScale{base: 96, probes: 48, singles: 4, batch: 8, simSlots: 4000}
	}
	return denseScale{base: 2048, probes: 128, singles: 16, batch: 32, simSlots: 30000}
}

// loadSet admits a starting set through batch-setup calls of size
// items, failing on any refused item. With timed set, each full batch
// is a batch-setup sample filed under the batch's place in the set, so
// the repeated set-ups repeat each batch.
func (r *run) loadSet(ctx context.Context, cl *wire.Client, reqs []core.ConnRequest, size int, timed bool) error {
	for i := 0; i < len(reqs); i += size {
		part := reqs[i:min(i+size, len(reqs))]
		t0 := time.Now()
		res, err := cl.BatchSetup(ctx, part)
		if err == nil && timed && len(part) == size {
			r.batchSample(i/size, t0)
		}
		if err == nil {
			for _, it := range res {
				if !it.OK {
					err = fmt.Errorf("item %s refused: %s", it.ID, it.Error)
					break
				}
			}
		}
		r.ops.Done(opLoad, err)
		if err != nil {
			return fmt.Errorf("load: %w", err)
		}
	}
	return nil
}

func newDenseNet() (*core.Network, error) {
	rt, err := rtnet.New(rtnet.Config{RingNodes: denseRing, TerminalsPerNode: denseTerminals, QueueCells: denseQueues})
	if err != nil {
		return nil, err
	}
	return rt.Core(), nil
}

func runDense(r *run) error {
	ctx := context.Background()
	sc := r.denseScale()
	base, baseTerms, err := denseConns(r.opts.Seed, "d", sc.base)
	if err != nil {
		return err
	}
	probes, _, err := denseConns(r.opts.Seed, "p", sc.probes)
	if err != nil {
		return err
	}
	// Three probes in eight are at priority 1, by position. A probe's
	// priority sets which of two cost levels its connect and query fall
	// in; with the sampler's seeded share near one half, the p50 would
	// jump between the levels from seed to seed.
	for i := range probes {
		probes[i].Priority = 2
		if i%8 < 3 {
			probes[i].Priority = 1
		}
	}
	ledger := make(map[core.ConnID]bool, len(base))
	for _, q := range base {
		ledger[q.ID] = true
	}

	var nd *node
	var cl *wire.Client
	cfg := nodeConfig{name: "central", rec: r.rec}
	for rep := 0; rep < r.reps(); rep++ {
		if nd != nil {
			cl.Close()
			nd.stop()
		}
		cfg.dir = filepath.Join(r.dir, fmt.Sprintf("central-%d", rep))
		err := r.timeSetup(func() error {
			if cfg.network, err = newDenseNet(); err != nil {
				return err
			}
			if nd, err = startNode(cfg); err != nil {
				return err
			}
			if cl, err = wire.Dial(nd.addr); err != nil {
				return err
			}
			return r.loadSet(ctx, cl, base, sc.batch, true)
		})
		if err != nil {
			return err
		}
	}
	defer func() {
		if cl != nil {
			cl.Close()
		}
		if nd != nil {
			nd.stop()
		}
	}()
	fmt.Fprintf(r.out, "dense-port: %d connections at %s port %d loaded by batch-setup of %d, %d probes; round = %d x (connect, route-bound, release)\n",
		sc.base, rtnet.SwitchName(0), rtnet.RingOutPort, sc.batch, sc.probes, sc.singles)

	// The port's bound at each priority with exactly the starting set:
	// every round returns to it, so it is the bound after each release.
	baseBound := map[core.Priority]float64{}
	probeRoute := base[0].Route
	for _, p := range []core.Priority{1, 2} {
		if baseBound[p], err = cl.RouteBound(ctx, probeRoute, p); err != nil {
			return fmt.Errorf("base bound: %w", err)
		}
	}
	fmt.Fprintf(r.out, "dense-port: starting bounds D'(1)=%.3f D'(2)=%.3f cells (budgets %g, %g)\n",
		baseBound[1], baseBound[2], float64(denseD1), float64(denseD2))

	// Round k connects probes k*singles.. of the cycle; every connection
	// gets a fresh ID.
	next := 0
	probe := func(i int) core.ConnRequest {
		q := probes[i]
		q.ID = core.ConnID(fmt.Sprintf("x%07d", next))
		next++
		return q
	}
	checkAdm := func(q core.ConnRequest, adm *wire.Admission) {
		if len(adm.PerHopComputed) != 1 || len(adm.PerHopGuaranteed) != 1 {
			r.orc.Failf("%s: admission with %d hops, want 1", q.ID, len(adm.PerHopComputed))
			return
		}
		d, g := adm.PerHopComputed[0], adm.PerHopGuaranteed[0]
		r.orc.Check(g == denseQueues[q.Priority], "%s: guaranteed %g, want D(j,%d)=%g", q.ID, g, q.Priority, denseQueues[q.Priority])
		r.orc.Check(d <= g+1e-9, "%s: per-hop bound %g exceeds D(j,p)=%g", q.ID, d, g)
		r.orc.Check(d >= baseBound[q.Priority]-1e-9, "%s: bound after connect %g below bound after release %g", q.ID, d, baseBound[q.Priority])
	}
	round := func(key int) error {
		for i := key * sc.singles; i < (key+1)*sc.singles; i++ {
			q := probe(i)
			var adm *wire.Admission
			if err := r.timed(opConnect, string(q.ID), i, func() (err error) {
				adm, err = cl.Setup(ctx, q)
				return err
			}); err != nil {
				return err
			}
			ledger[q.ID] = true
			checkAdm(q, adm)
			var b float64
			if err := r.timed(opQuery, string(q.ID), i, func() (err error) {
				b, err = cl.RouteBound(ctx, q.Route, q.Priority)
				return err
			}); err != nil {
				return err
			}
			r.orc.Check(b <= denseQueues[q.Priority]+1e-9, "%s: route bound %g exceeds D=%g", q.ID, b, denseQueues[q.Priority])
			r.orc.Check(b >= baseBound[q.Priority]-1e-9, "%s: route bound %g with the connection below %g without", q.ID, b, baseBound[q.Priority])
			if err := r.timed(opRelease, string(q.ID), i, func() error { return cl.Teardown(ctx, q.ID) }); err != nil {
				return err
			}
			delete(ledger, q.ID)
		}
		return nil
	}
	// Restart from the state directory: snapshot load, journal replay
	// and re-admission of every connection; the bounds must come back.
	sameBounds := func(when string) error {
		for _, p := range []core.Priority{1, 2} {
			b, err := cl.RouteBound(ctx, probeRoute, p)
			if err != nil {
				return err
			}
			r.orc.Check(math.Abs(b-baseBound[p]) <= 1e-9*math.Max(1, b),
				"priority %d: bound %g %s differs from the starting %g", p, b, when, baseBound[p])
		}
		return nil
	}
	restart := func() error {
		if err := sameBounds("after the releases"); err != nil {
			return err
		}
		cl.Close()
		nd.stop()
		t0 := time.Now()
		var err error
		if cfg.network, err = newDenseNet(); err != nil {
			return err
		}
		if nd, err = startNode(cfg); err != nil {
			return err
		}
		if cl, err = wire.Dial(nd.addr); err != nil {
			return err
		}
		r.restarted(t0)
		r.checkRecovered(ctx, nd, cl, ledger)
		r.noteRecovery(nd)
		return sameBounds("after restart")
	}
	if err := r.phases(sc.probes/sc.singles, round, restart); err != nil {
		return err
	}
	if r.rec != nil {
		spans := r.rec.Spans()
		r.commonLayers(spans, wire.OpBound)
		r.singleServerAttribution(newSpanIndex(spans), r.callsOf(opConnect))
	}
	t0 := time.Now()
	err = simReplay(base, baseTerms, baseBound, sc.simSlots)
	r.ops.Done(opSimCheck, err)
	if err != nil {
		r.orc.Failf("cell-level replay: %v", err)
	}
	fmt.Fprintf(r.out, "dense-port: cell-level replay of %d connections over %d slots in %.2fs\n",
		len(base), sc.simSlots, time.Since(t0).Seconds())
	return nil
}

// checkRecovered asserts a restart recovered exactly the ledger, with
// zero failed re-admissions.
func (r *run) checkRecovered(ctx context.Context, nd *node, cl *wire.Client, ledger map[core.ConnID]bool) {
	r.orc.Check(len(nd.rep.Failed) == 0, "%s: %d connections failed re-admission", nd.cfg.name, len(nd.rep.Failed))
	got, err := admittedSet(ctx, cl)
	if err != nil {
		r.orc.Failf("%s: list after restart: %v", nd.cfg.name, err)
		return
	}
	if ok, why := sameSet(got, ledger); !ok {
		r.orc.Failf("%s: after restart: %s", nd.cfg.name, why)
	}
}

// simReplay drives the final admitted set through the internal/sim
// cell-level simulator with greedy conforming sources and checks that no
// cell waits at the dense port longer than the computed bound. Each
// terminal is a one-port switch in front of the ring node, so the cells
// of one terminal's connections share their access link exactly as the
// analysis assumes; a source's jitter window is its CDV.
func simReplay(reqs []core.ConnRequest, terms []int, bound map[core.Priority]float64, slots uint64) error {
	net := sim.New()
	caps := map[sim.Priority]int{1: 1 << 30, 2: 1 << 30}
	ring, err := net.AddSwitch(rtnet.SwitchName(0), caps)
	if err != nil {
		return err
	}
	termSw := make([]*sim.Switch, denseTerminals)
	for t := range termSw {
		if termSw[t], err = net.AddSwitch(fmt.Sprintf("term%02d", t), caps); err != nil {
			return err
		}
		if err := net.Link(termSw[t], 0, ring, int(rtnet.TerminalPort(t))); err != nil {
			return err
		}
	}
	for i, q := range reqs {
		prio := sim.Priority(q.Priority)
		if err := termSw[terms[i]].SetRoute(i, 0, prio); err != nil {
			return err
		}
		if err := ring.SetRoute(i, int(rtnet.RingOutPort), prio); err != nil {
			return err
		}
		if err := net.AddSource(sim.SourceConfig{
			VC: i, Spec: q.Spec, Dest: termSw[terms[i]], InPort: 0,
			Mode: sim.Greedy, JitterWindow: uint64(q.SourceCDV), SelfCheck: true,
		}); err != nil {
			return err
		}
	}
	stats, err := net.Run(slots)
	if err != nil {
		return err
	}
	for _, p := range []core.Priority{1, 2} {
		qs := stats.Queues[sim.QueueKey(rtnet.SwitchName(0), int(rtnet.RingOutPort), sim.Priority(p))]
		if float64(qs.MaxDelay) > bound[p]+1e-9 {
			return fmt.Errorf("priority %d: a cell waited %d slots, computed bound %.3f", p, qs.MaxDelay, bound[p])
		}
	}
	return nil
}
