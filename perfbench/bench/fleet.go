package bench

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/routing"
	"atmcac/internal/topology"
	"atmcac/internal/wire"
	"atmcac/internal/workload"
)

// Fleet budgets D(j,p) in cell times. Hard CDV accumulation charges each
// hop the guarantees of the hops before it, so budgets stay modest: a
// larger D would clump downstream arrivals more.
var fleetQueues = map[core.Priority]float64{1: 128, 2: 1024}

var fleetMix = workload.FleetConfig{PCRMin: 0.0005, PCRMax: 0.005, MBSMax: 16}

// Each caller takes singles+batch probes per round; cycle rounds use
// every probe once.
type fleetScale struct {
	k, hostsPerEdge, base, cycle, callers, singles, batch int
}

func (r *run) fleetScale() fleetScale {
	if r.opts.Small {
		return fleetScale{k: 4, hostsPerEdge: 2, base: 64, cycle: 4, callers: 2, singles: 2, batch: 8}
	}
	return fleetScale{k: 12, hostsPerEdge: 6, base: 6000, cycle: 16, callers: 2, singles: 8, batch: 32}
}

func (s fleetScale) probes() int { return s.cycle * s.callers * (s.singles + s.batch) }

// fleetConns binds n seeded fleet templates to routes between random
// host pairs of the fat tree. Each route climbs to a randomly chosen core
// (or aggregation switch, within a pod), as equal-cost multipath would;
// minimum-hop search alone would send every inter-pod connection through
// core00.
func fleetConns(seed uint64, label string, g *topology.Graph, k int, hosts []topology.NodeID, n int) ([]core.ConnRequest, error) {
	tpls, err := workload.SampleFleet(workload.NewRNG(seed).Split(label).Uint64(), fleetMix, n)
	if err != nil {
		return nil, err
	}
	rng := workload.NewRNG(seed).Split(label + "/routes")
	reqs := make([]core.ConnRequest, n)
	for i, t := range tpls {
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[rng.Intn(len(hosts)-1)]
		if dst == src {
			dst = hosts[len(hosts)-1]
		}
		route, err := fatTreeRoute(g, k, rng, src, dst)
		if err != nil {
			return nil, err
		}
		reqs[i] = core.ConnRequest{
			ID: core.ConnID(fmt.Sprintf("%s%05d", label, i)), Spec: t.Spec, Priority: t.Priority, Route: route,
		}
	}
	return reqs, nil
}

// fatTreeRoute joins the minimum-hop paths from src up to a random core
// (hosts in different pods) or aggregation switch (same pod, different
// edge) and down to dst.
func fatTreeRoute(g *topology.Graph, k int, rng *workload.RNG, src, dst topology.NodeID) (core.Route, error) {
	var sp, se, dp, de, h int
	if _, err := fmt.Sscanf(string(src), "p%de%d-h%d", &sp, &se, &h); err != nil {
		return nil, fmt.Errorf("host %q: %w", src, err)
	}
	if _, err := fmt.Sscanf(string(dst), "p%de%d-h%d", &dp, &de, &h); err != nil {
		return nil, fmt.Errorf("host %q: %w", dst, err)
	}
	half := k / 2
	var via topology.NodeID
	switch {
	case sp != dp:
		via = topology.FatTreeCore(rng.Intn(half * half))
	case se != de:
		via = topology.FatTreeAgg(sp, rng.Intn(half))
	default:
		return routing.Route(g, src, dst)
	}
	up, err := g.Path(src, via)
	if err != nil {
		return nil, err
	}
	down, err := g.Path(via, dst)
	if err != nil {
		return nil, err
	}
	path := append(up[:len(up)-1:len(up)-1], topology.Traversal{Node: via, InPort: up[len(up)-1].InPort, OutPort: down[0].OutPort})
	return routing.FromTraversals(g, append(path, down[1:]...))
}

func runFleet(r *run) error {
	ctx := context.Background()
	sc := r.fleetScale()
	g, err := topology.FatTree(topology.FatTreeConfig{K: sc.k, HostsPerEdge: sc.hostsPerEdge})
	if err != nil {
		return err
	}
	var hosts []topology.NodeID
	for _, nd := range g.Nodes() {
		if nd.Kind == topology.KindHost {
			hosts = append(hosts, nd.ID)
		}
	}
	base, err := fleetConns(r.opts.Seed, "f", g, sc.k, hosts, sc.base)
	if err != nil {
		return err
	}
	probes, err := fleetConns(r.opts.Seed, "q", g, sc.k, hosts, sc.probes())
	if err != nil {
		return err
	}
	var mu sync.Mutex // guards ledger
	ledger := make(map[core.ConnID]bool, len(base))
	for _, q := range base {
		ledger[q.ID] = true
	}
	hops := 0
	for _, q := range base {
		hops += len(q.Route)
	}
	fmt.Fprintf(r.out, "fleet-pipelined: fat tree k=%d, %d hosts, %d connections (%.1f hop entries per output port); %d callers on one binary connection; round = %d x (connect, route-bound, release) per caller side by side, then list + batch-setup/teardown of %d per caller side by side\n",
		sc.k, len(hosts), sc.base, float64(hops)/float64(len(g.Links())), sc.callers, sc.singles, sc.batch)

	var nd *node
	var cl *wire.Client
	cfg := nodeConfig{name: "fleet", rec: r.rec}
	newNet := func() (err error) {
		cfg.network, err = routing.BuildNetwork(g, fleetQueues, core.HardCDV{})
		return err
	}
	for rep := 0; rep < r.reps(); rep++ {
		if nd != nil {
			cl.Close()
			nd.stop()
		}
		cfg.dir = filepath.Join(r.dir, fmt.Sprintf("fleet-%d", rep))
		if err := r.timeSetup(func() error {
			if err := newNet(); err != nil {
				return err
			}
			if nd, err = startNode(cfg); err != nil {
				return err
			}
			if cl, err = wire.Dial(nd.addr); err != nil {
				return err
			}
			return r.loadSet(ctx, cl, base, chunk, false)
		}); err != nil {
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
	r.orc.Check(cl.Proto() == wire.ProtoBinary, "client negotiated %q, want the binary pipelined framing", cl.Proto())

	routeBudget := func(q core.ConnRequest) float64 { return float64(len(q.Route)) * fleetQueues[q.Priority] }
	// In round k caller c takes the probes from first(k, c) on: its
	// singles, then its batch. Every connection gets a fresh ID.
	var next atomic.Int64
	first := func(key, caller int) int { return (key*sc.callers + caller) * (sc.singles + sc.batch) }
	probe := func(i, caller int) core.ConnRequest {
		q := probes[i]
		q.ID = core.ConnID(fmt.Sprintf("c%d-%07d", caller, next.Add(1)))
		return q
	}
	checkAdm := func(q core.ConnRequest, adm *wire.Admission) {
		r.orc.Check(len(adm.PerHopComputed) == len(q.Route), "%s: %d hop bounds for %d hops", q.ID, len(adm.PerHopComputed), len(q.Route))
		for i, d := range adm.PerHopComputed {
			r.orc.Check(d <= fleetQueues[q.Priority]+1e-9, "%s hop %d: bound %g exceeds D=%g", q.ID, i, d, fleetQueues[q.Priority])
		}
	}
	mark := func(id core.ConnID, on bool) {
		mu.Lock()
		if on {
			ledger[id] = true
		} else {
			delete(ledger, id)
		}
		mu.Unlock()
	}
	singles := func(key, caller int) error {
		for i := first(key, caller); i < first(key, caller)+sc.singles; i++ {
			q := probe(i, caller)
			var adm *wire.Admission
			if err := r.timed(opConnect, string(q.ID), i, func() (err error) {
				adm, err = cl.Setup(ctx, q)
				return err
			}); err != nil {
				return err
			}
			mark(q.ID, true)
			checkAdm(q, adm)
			var b float64
			if err := r.timed(opQuery, string(q.ID), i, func() (err error) {
				b, err = cl.RouteBound(ctx, q.Route, q.Priority)
				return err
			}); err != nil {
				return err
			}
			r.orc.Check(b <= routeBudget(q)+1e-9, "%s: route bound %g exceeds the route's sum of D(j,p) %g", q.ID, b, routeBudget(q))
			if err := r.timed(opRelease, string(q.ID), i, func() error { return cl.Teardown(ctx, q.ID) }); err != nil {
				return err
			}
			mark(q.ID, false)
		}
		return nil
	}
	batches := func(key, caller int) error {
		slot := key*sc.callers + caller
		if err := r.timed(opList, "", slot, func() error {
			ids, err := cl.List(ctx)
			if err == nil && len(ids) < sc.base {
				err = fmt.Errorf("list returned %d connections, the starting set alone has %d", len(ids), sc.base)
			}
			return err
		}); err != nil {
			return err
		}
		batch := make([]core.ConnRequest, sc.batch)
		ids := make([]core.ConnID, sc.batch)
		for i := range batch {
			batch[i] = probe(first(key, caller)+sc.singles+i, caller)
			ids[i] = batch[i].ID
		}
		if err := r.timed(opBatch, "", slot, func() error {
			res, err := cl.BatchSetup(ctx, batch)
			if err != nil {
				return err
			}
			for i, it := range res {
				if !it.OK || it.Admission == nil {
					return fmt.Errorf("batch item %s refused: %s", it.ID, it.Error)
				}
				mark(it.ID, true)
				checkAdm(batch[i], it.Admission)
			}
			return nil
		}); err != nil {
			return err
		}
		return r.timed(opBatchTD, "", slot, func() error {
			res, err := cl.BatchTeardown(ctx, ids)
			if err != nil {
				return err
			}
			for _, it := range res {
				if !it.OK {
					return fmt.Errorf("batch teardown %s refused: %s", it.ID, it.Error)
				}
				mark(it.ID, false)
			}
			return nil
		})
	}
	// A round runs the callers' single operations side by side, then
	// their batches side by side. A batch holds the server's operation
	// lock exclusively, so in a free-running mix a single operation's
	// latency would be mostly the luck of where the batches fell.
	round := func(key int) error {
		if err := fanOut(sc.callers, func(c int) error { return singles(key, c) }); err != nil {
			return err
		}
		return fanOut(sc.callers, func(c int) error { return batches(key, c) })
	}
	restart := func() error {
		got, err := admittedSet(ctx, cl)
		if err != nil {
			return err
		}
		if ok, why := sameSet(got, ledger); !ok {
			r.orc.Failf("fleet: before restart: %s", why)
		}
		cl.Close()
		nd.stop()
		t0 := time.Now()
		if err := newNet(); err != nil {
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
		return nil
	}
	if err := r.phases(sc.cycle, round, restart); err != nil {
		return err
	}
	if r.rec != nil {
		spans := r.rec.Spans()
		r.commonLayers(spans, wire.OpBound)
		r.singleServerAttribution(newSpanIndex(spans), r.callsOf(opConnect))
	}
	return nil
}

// fanOut runs fn(0..n-1) concurrently and returns the first error.
func fanOut(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
