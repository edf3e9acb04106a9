package bench

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/journal"
	"atmcac/internal/obs"
	"atmcac/internal/shard"
	"atmcac/internal/wire"
	"atmcac/internal/workload"
)

const crossShards = 3

var crossQueues = map[core.Priority]float64{1: 128, 2: 512}

// group is how many starting connections are loaded per timed group.
type crossScale struct {
	perShard, base, probes, group int
}

func (r *run) crossScale() crossScale {
	if r.opts.Small {
		return crossScale{perShard: 2, base: 24, probes: 24, group: 8}
	}
	return crossScale{perShard: 4, base: 600, probes: 120, group: 32}
}

func crossSwitch(i int) string { return fmt.Sprintf("sw%02d", i) }

// crossConns generates n connections over the line of switches
// sw00..sw(3P-1), shard s owning block s. Connection i spans
// spans(i) shards; a fixed shard gives single-shard routes inside it.
func crossConns(seed uint64, label string, perShard, n int, spans func(i int) (first, last int)) ([]core.ConnRequest, error) {
	tpls, err := workload.SampleFleet(workload.NewRNG(seed).Split(label).Uint64(), fleetMix, n)
	if err != nil {
		return nil, err
	}
	rng := workload.NewRNG(seed).Split(label + "/routes")
	reqs := make([]core.ConnRequest, n)
	for i, t := range tpls {
		first, last := spans(i)
		from := first*perShard + rng.Intn(perShard)
		to := last*perShard + rng.Intn(perShard)
		if to < from {
			from, to = to, from
		}
		var route core.Route
		for sw := from; sw <= to; sw++ {
			route = append(route, core.Hop{Switch: crossSwitch(sw),
				In: core.PortID(1 + rng.Intn(8)), Out: core.PortID(1 + rng.Intn(8))})
		}
		reqs[i] = core.ConnRequest{ID: core.ConnID(fmt.Sprintf("%s%05d", label, i)),
			Spec: t.Spec, Priority: t.Priority, Route: route}
	}
	return reqs, nil
}

// spanClass cycles routes over one, two and three shards.
func spanClass(rng *workload.RNG) func(i int) (int, int) {
	return func(i int) (int, int) {
		switch i % 3 {
		case 0:
			s := rng.Intn(crossShards)
			return s, s
		case 1:
			s := rng.Intn(crossShards - 1)
			return s, s + 1
		default:
			return 0, crossShards - 1
		}
	}
}

// plane is the sharded control plane: three shards, each a
// sync-replicated primary/standby pair, and an active coordinator
// shipping its intent log to a standby coordinator, fronted by the
// coordinator's wire server.
type plane struct {
	r        *run
	perShard int
	dir      string
	pairs    []pair
	coord    *shard.Coordinator
	intent   *shard.IntentPrimary
	intentLn net.Listener
	sbCoord  *shard.StandbyCoordinator
	sbCancel context.CancelFunc
	sbDone   chan error
	front    *shard.Server
	frontLn  net.Listener
	frontErr chan error
	client   *wire.Client
}

// pair is one replicated shard.
type pair struct{ primary, standby *node }

func (p pair) members() []*node { return []*node{p.primary, p.standby} }

func (f *plane) tracer(reg *obs.Registry, src string) obs.Tracer {
	var t obs.Tracer = obs.NewMetricsTracer(reg)
	if f.r.rec != nil {
		t = obs.Multi(t, f.r.rec.Tracer(src))
	}
	return t
}

func (f *plane) fs(src string) journal.FS {
	if f.r.rec == nil {
		return journal.OSFS{}
	}
	return f.r.rec.FS(src)
}

func (f *plane) shardNet(s int) (*core.Network, error) {
	n := core.NewNetwork(core.HardCDV{})
	for i := 0; i < f.perShard; i++ {
		if _, err := n.AddSwitch(core.SwitchConfig{Name: crossSwitch(s*f.perShard + i), QueueCells: crossQueues}); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// start boots (or recovers) every shard and both coordinators from the
// state directory and waits until the standby coordinator is attached.
func (f *plane) start(ctx context.Context) error {
	f.pairs = make([]pair, crossShards)
	var spec []string
	for s := 0; s < crossShards; s++ {
		id := fmt.Sprintf("s%d", s)
		p := &f.pairs[s]
		network, err := f.shardNet(s)
		if err != nil {
			return err
		}
		if p.primary, err = startNode(nodeConfig{name: id, dir: filepath.Join(f.dir, id+"-p"), network: network,
			rec: f.r.rec, shardID: id, replicate: true}); err != nil {
			return err
		}
		if network, err = f.shardNet(s); err != nil {
			return err
		}
		if p.standby, err = startNode(nodeConfig{name: id + "-standby", dir: filepath.Join(f.dir, id+"-s"), network: network,
			rec: f.r.rec, shardID: id, follow: p.primary.replLn.Addr().String()}); err != nil {
			return err
		}
		var owned []string
		for i := 0; i < f.perShard; i++ {
			owned = append(owned, crossSwitch(s*f.perShard+i))
		}
		spec = append(spec, fmt.Sprintf("%s@%s|%s=%s", id, p.primary.addr, p.standby.addr, strings.Join(owned, ",")))
	}
	// Sync shipping refuses writes until the standby is attached.
	for _, p := range f.pairs {
		if err := waitAttached(ctx, p.primary); err != nil {
			return err
		}
	}
	m, err := shard.ParseMap(strings.Join(spec, ";"))
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	if f.coord, err = shard.NewCoordinator(m, f.fs("coord"), filepath.Join(f.dir, "intent-active.log")); err != nil {
		return err
	}
	tr := f.tracer(reg, "coord")
	f.coord.SetTracer(tr)
	f.coord.RegisterMetrics(reg)
	rep, err := f.coord.Recover(ctx)
	if err != nil {
		return err
	}
	if len(rep.InDoubt) > 0 {
		return fmt.Errorf("coordinator recovery left %d transactions in doubt", len(rep.InDoubt))
	}
	if f.intentLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	f.intent = shard.NewIntentPrimary(f.coord, tr)
	f.intent.RegisterMetrics(reg)
	go func(p *shard.IntentPrimary, l net.Listener) { _ = p.Serve(l) }(f.intent, f.intentLn)
	if f.sbCoord, err = shard.NewStandbyCoordinator(shard.StandbyConfig{
		From: f.intentLn.Addr().String(), LogPath: filepath.Join(f.dir, "intent-standby.log"),
		FS: f.fs("coord-standby"), FailoverTimeout: time.Hour, Tracer: f.tracer(obs.NewRegistry(), "coord-standby"),
	}); err != nil {
		return err
	}
	var sbCtx context.Context
	sbCtx, f.sbCancel = context.WithCancel(context.Background())
	f.sbDone = make(chan error, 1)
	go func(sb *shard.StandbyCoordinator) { f.sbDone <- sb.Run(sbCtx) }(f.sbCoord)
	for deadline := time.Now().Add(10 * time.Second); !f.intent.Attached(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("standby coordinator never attached")
		}
	}
	if f.frontLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	f.front = shard.NewServer(f.coord)
	f.frontErr = make(chan error, 1)
	served := f.frontLn
	if f.r.rec != nil {
		served = f.r.rec.Listener(f.frontLn, "coord-front")
	}
	go func(s *shard.Server, l net.Listener) { f.frontErr <- s.Serve(l) }(f.front, served)
	if f.client, err = wire.Dial(f.frontLn.Addr().String()); err != nil {
		return err
	}
	return nil
}

// stop kills everything without final snapshots; safe on a partial
// start.
func (f *plane) stop() {
	if f.client != nil {
		f.client.Close()
	}
	if f.front != nil {
		_ = f.front.Close()
		<-f.frontErr
	}
	if f.intent != nil {
		f.intent.Close()
	}
	if f.intentLn != nil {
		_ = f.intentLn.Close()
	}
	if f.sbCoord != nil {
		f.sbCancel()
		f.sbCoord.Close()
		<-f.sbDone
	}
	if f.coord != nil {
		_ = f.coord.Close()
	}
	for _, p := range f.pairs {
		for _, n := range []*node{p.standby, p.primary} {
			if n != nil {
				n.stop()
			}
		}
	}
	*f = plane{r: f.r, perShard: f.perShard, dir: f.dir}
}

// shardsOf names the shards a route touches.
func shardsOf(route core.Route, perShard int) map[int]bool {
	out := map[int]bool{}
	for _, h := range route {
		var i int
		fmt.Sscanf(h.Switch, "sw%d", &i)
		out[i/perShard] = true
	}
	return out
}

func runCross(r *run) error {
	ctx := context.Background()
	sc := r.crossScale()
	base, err := crossConns(r.opts.Seed, "h", sc.perShard, sc.base, spanClass(workload.NewRNG(r.opts.Seed).Split("h/span")))
	if err != nil {
		return err
	}
	probes, err := crossConns(r.opts.Seed, "k", sc.perShard, sc.probes, spanClass(workload.NewRNG(r.opts.Seed).Split("k/span")))
	if err != nil {
		return err
	}
	ledger := make(map[core.ConnID]core.ConnRequest, len(base))
	fmt.Fprintf(r.out, "cross-shard-ha: %d sync-replicated shard pairs of %d switches, replicated coordinator; %d starting connections over 1/2/3 shards, loaded in groups of %d; round = 3 x (connect, list, release)\n",
		crossShards, sc.perShard, sc.base, sc.group)

	f := &plane{r: r, perShard: sc.perShard}
	defer func() { f.stop() }()
	for rep := 0; rep < r.reps(); rep++ {
		f.stop()
		f.dir = filepath.Join(r.dir, fmt.Sprintf("ha-%d", rep))
		if err := r.timeSetup(func() error {
			if err := f.start(ctx); err != nil {
				return err
			}
			// The coordinator has no batch op: batch_p50_ms here is a group
			// of starting connections set up one after another.
			for i := 0; i < len(base); i += sc.group {
				t0 := time.Now()
				for _, q := range base[i:min(i+sc.group, len(base))] {
					_, err := f.client.Setup(ctx, q)
					r.ops.Done(opLoad, err)
					if err != nil {
						return fmt.Errorf("load %s: %w", q.ID, err)
					}
				}
				if i+sc.group <= len(base) {
					r.batchSample(i/sc.group, t0)
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	for _, q := range base {
		ledger[q.ID] = q
	}

	checkAdm := func(q core.ConnRequest, adm *wire.Admission) {
		r.orc.Check(len(adm.PerHopComputed) == len(q.Route), "%s: %d hop bounds for %d hops", q.ID, len(adm.PerHopComputed), len(q.Route))
		for i, d := range adm.PerHopComputed {
			r.orc.Check(d <= crossQueues[q.Priority]+1e-9, "%s hop %d: bound %g exceeds D=%g", q.ID, i, d, crossQueues[q.Priority])
		}
	}
	ledgerSet := func() map[core.ConnID]bool {
		out := make(map[core.ConnID]bool, len(ledger))
		for id := range ledger {
			out[id] = true
		}
		return out
	}
	// Round k connects probes 3k..3k+2, one over each span class; every
	// connection gets a fresh ID.
	next := 0
	round := func(key int) error {
		for i := 3 * key; i < 3*key+3; i++ {
			q := probes[i]
			q.ID = core.ConnID(fmt.Sprintf("x%07d", next))
			next++
			var adm *wire.Admission
			if err := r.timed(opConnect, string(q.ID), i, func() (err error) {
				adm, err = f.client.Setup(ctx, q)
				return err
			}); err != nil {
				return err
			}
			ledger[q.ID] = q
			checkAdm(q, adm)
			var ids []core.ConnID
			if err := r.timed(opQuery, string(q.ID), i, func() (err error) {
				ids, err = f.client.List(ctx)
				return err
			}); err != nil {
				return err
			}
			got := make(map[core.ConnID]bool, len(ids))
			for _, id := range ids {
				got[id] = true
			}
			if ok, why := sameSet(got, ledgerSet()); !ok {
				r.orc.Failf("coordinator list: %s", why)
			}
			if err := r.timed(opRelease, string(q.ID), i, func() error { return f.client.Teardown(ctx, q.ID) }); err != nil {
				return err
			}
			delete(ledger, q.ID)
		}
		return nil
	}
	// Restart the whole control plane from its state: every shard's
	// snapshot, journal replay and re-admission, and the coordinator's
	// intent-log recovery with its standby re-attached.
	restart := func() error {
		r.checkHA(ctx, f, ledger)
		f.stop()
		t0 := time.Now()
		if err := f.start(ctx); err != nil {
			return err
		}
		r.restarted(t0)
		for _, p := range f.pairs {
			for _, n := range p.members() {
				r.orc.Check(len(n.rep.Failed) == 0, "%s: %d connections failed re-admission", n.cfg.name, len(n.rep.Failed))
			}
		}
		got, err := admittedSet(ctx, f.client)
		if err != nil {
			return err
		}
		if ok, why := sameSet(got, ledgerSet()); !ok {
			r.orc.Failf("coordinator list after restart: %s", why)
		}
		return nil
	}
	if err := r.phases(sc.probes/3, round, restart); err != nil {
		return err
	}
	if r.rec != nil {
		r.crossLayers()
	}
	r.checkHA(ctx, f, ledger)
	return nil
}

// checkHA is the sharded control plane's end-state oracle: the primary
// and the standby of every shard pair list exactly the ledger's legs on
// that shard with no prepared hold and no bound violation, the
// coordinator has nothing in doubt, and the standby coordinator's copy of
// the intent log has reached the active's last sequence.
func (r *run) checkHA(ctx context.Context, f *plane, ledger map[core.ConnID]core.ConnRequest) {
	for s := 0; s < crossShards; s++ {
		want := map[core.ConnID]bool{}
		for id, q := range ledger {
			if shardsOf(q.Route, f.perShard)[s] {
				want[id] = true
			}
		}
		for _, n := range f.pairs[s].members() {
			cl, err := wire.Dial(n.addr)
			if err != nil {
				r.orc.Failf("%s: dial: %v", n.cfg.name, err)
				continue
			}
			got, err := admittedSet(ctx, cl)
			if err == nil {
				if ok, why := sameSet(got, want); !ok {
					r.orc.Failf("%s: %s", n.cfg.name, why)
				}
				var h *wire.HealthReport
				if h, err = cl.Health(ctx); err == nil {
					r.orc.Check(h.Prepared == 0, "%s: %d prepared holds left", n.cfg.name, h.Prepared)
					r.orc.Check(h.Violations == 0, "%s: %d delay-bound violations", n.cfg.name, h.Violations)
				}
			}
			if err != nil {
				r.orc.Failf("%s: %v", n.cfg.name, err)
			}
			cl.Close()
		}
	}
	r.orc.Check(len(f.coord.InDoubt()) == 0, "coordinator has %d transactions in doubt", len(f.coord.InDoubt()))
	last := f.coord.IntentLog().LastSeq()
	for deadline := time.Now().Add(5 * time.Second); f.intent.Lag() > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	r.orc.Check(f.intent.Lag() == 0, "standby coordinator lags the intent log by %d records", f.intent.Lag())
	// Read the standby's own copy: it must hold the active's last record.
	_, recs, _, err := shard.OpenIntentLog(journal.OSFS{}, filepath.Join(f.dir, "intent-standby.log"))
	if err != nil {
		r.orc.Failf("standby intent log: %v", err)
		return
	}
	var top uint64
	for _, rec := range recs {
		if rec.Seq > top {
			top = rec.Seq
		}
	}
	r.orc.Check(top >= last, "standby coordinator's intent log ends at %d, active at %d", top, last)
}

// crossLayers attributes each traced connect of the sharded control
// plane to the layers on its blocking path, each measured at its own
// boundary and unioned over the connect's interval: the shard primaries'
// request exchanges (shard-local setups, prepares and commits, each
// including its journal fsync and its shipping to the standby up to the
// ack), the coordinator's intent-log appends, each from the active's
// write to the standby coordinator's fsync of the shipped copy, and the
// coordinator's own span of each two-phase setup. The wire transit is the
// client-observed time outside the coordinator front end's own request
// span, timed on its accepted connections. The part of the coordinator's
// span outside the shard exchanges and the intent log (its own work and
// the transit of its calls to the shards, which cannot be timed apart
// from outside) is printed on its own, beside an estimate of that
// transit that charges each call the client hop's transit.
func (r *run) crossLayers() {
	spans := r.rec.Spans()
	r.commonLayers(spans, wire.OpList)
	isMember := func(s Span) bool {
		return (s.Layer == string(obs.KindRequest) || s.Layer == "conn.serve") && !isCoord(s)
	}
	var writes, ownSyncs, sbSyncs []Span
	for _, s := range spans {
		switch {
		case s.Op != "intent":
		case s.Layer == "fs.write" && s.Src == "coord":
			writes = append(writes, s)
		case s.Layer == "fs.sync" && s.Src == "coord":
			ownSyncs = append(ownSyncs, s)
		case s.Layer == "fs.sync" && s.Src == "coord-standby":
			sbSyncs = append(sbSyncs, s)
		}
	}
	syncs := newSpanIndex(ownSyncs)
	appends, shipUS := intentAppends(writes, ownSyncs, sbSyncs)
	r.layer["shard.intent_ship_us"] = quantile(shipUS, 0.5)
	// The coordinator traces each two-phase setup it commits as one
	// shard-commit event: its prepares, intent appends, commits and its
	// own work between them.
	isTxn := func(s Span) bool { return s.Src == "coord" && s.Layer == string(obs.KindShardCommit) }
	idx := newSpanIndex(append(append(sel(spans, isMember), appends...), sel(spans, isTxn)...))
	ships := newSpanIndex(sel(spans, func(s Span) bool { return s.Layer == "repl.ship" }))
	legSpans := newSpanIndex(sel(spans, func(s Span) bool {
		return !isCoord(s) && (s.Layer == string(obs.KindShardPrepare) || s.Layer == string(obs.KindShardCommit))
	}))
	fronts := newSpanIndex(sel(spans, func(s Span) bool { return s.Layer == "conn.serve" && s.Src == "coord-front" }))
	parts := map[string][]float64{}
	var sums, coordUS, transits []float64
	var intentSyncs, legs, n int
	for _, c := range r.callsOf(opConnect) {
		in := idx.window(c.start, c.end())
		member := sel(in, isMember)
		intent := sel(in, func(s Span) bool { return s.Layer == "intent-append" })
		transit := c.dur - covered(fronts.window(c.start, c.end()), c.start, c.end())
		transits = append(transits, us(transit))
		// Not summed: the coordinator's calls to the shards run the same
		// client and session code over loopback as the client hop.
		exchanges := len(sel(member, func(s Span) bool { return s.Layer == "conn.serve" }))
		rpc := time.Duration(exchanges) * transit
		parts["wire transit (client to coordinator)"] = append(parts["wire transit (client to coordinator)"], msf(transit))
		parts["not summed: coordinator to shards, estimated"] = append(parts["not summed: coordinator to shards, estimated"], msf(rpc))
		parts["shard primaries"] = append(parts["shard primaries"], msf(covered(member, c.start, c.end())))
		parts["  of which shipping to standby"] = append(parts["  of which shipping to standby"], msf(covered(ships.window(c.start, c.end()), c.start, c.end())))
		parts["coordinator intent log"] = append(parts["coordinator intent log"], msf(covered(intent, c.start, c.end())))
		own := covered(in, c.start, c.end()) - covered(append(member, intent...), c.start, c.end())
		parts["coordinator's own work and calls"] = append(parts["coordinator's own work and calls"], msf(own))
		sums = append(sums, msf(transit+covered(in, c.start, c.end())))
		n++
		srcs := map[string]bool{}
		for _, s := range member {
			if s.Layer == string(obs.KindRequest) && (s.Op == wire.OpSetup || s.Op == wire.OpShardPrepare) {
				srcs[s.Src] = true
			}
		}
		legs += len(srcs)
		intentSyncs += len(syncs.window(c.start, c.end()))
		// Slowest leg of a two-phase connect: its prepare plus commit on
		// one shard, matched by connection ID.
		leg := map[string]time.Duration{}
		for _, s := range legSpans.window(c.start, c.end()) {
			if s.Conn == c.conn {
				leg[s.Src] += s.Dur
			}
		}
		if len(leg) > 1 {
			var slowest time.Duration
			for _, d := range leg {
				slowest = max(slowest, d)
			}
			coordUS = append(coordUS, us(c.dur-slowest))
		}
	}
	if n > 0 {
		r.layer["shard.intent_syncs_per_setup"] = float64(intentSyncs) / float64(n)
		r.layer["shard.legs_per_setup"] = float64(legs) / float64(n)
	}
	r.layer["shard.coord_us"] = quantile(coordUS, 0.5)
	r.layer["wire.transit_us"] = quantile(transits, 0.5)
	r.attribution(sums, parts)
}

// intentAppends pairs each intent-log write on the active coordinator
// with the standby coordinator's next fsync of its copy: synchronous
// shipping holds the append until then. It also returns, per append, the
// shipping time: from the end of the active's own fsync to the end of
// the standby's.
func intentAppends(writes, syncs, sbSyncs []Span) (appends []Span, shipUS []float64) {
	byStart := func(s []Span) {
		sort.Slice(s, func(i, j int) bool { return s[i].Start.Before(s[j].Start) })
	}
	byStart(syncs)
	byStart(sbSyncs)
	next := func(s []Span, after time.Time) (Span, bool) {
		i := sort.Search(len(s), func(i int) bool { return s[i].Start.After(after) })
		if i == len(s) {
			return Span{}, false
		}
		return s[i], true
	}
	for _, w := range writes {
		sb, ok := next(sbSyncs, w.Start)
		if !ok {
			continue
		}
		appends = append(appends, Span{Layer: "intent-append", Src: "coord", Start: w.Start, Dur: sb.End().Sub(w.Start)})
		if own, ok := next(syncs, w.Start); ok && own.End().Before(sb.End()) {
			shipUS = append(shipUS, us(sb.End().Sub(own.End())))
		}
	}
	return appends, shipUS
}
