package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"atmcac/internal/obs"
	"atmcac/internal/wire"
)

// PerLayer lists the traced run's metrics with their units. A layer a
// workload does not exercise reads 0 on that workload (README lists
// where each is measured).
var PerLayer = []struct{ Name, Unit string }{
	{"core.admit_n16_us", "us"},
	{"core.admit_n256_us", "us"},
	{"core.admit_n4096_us", "us"},
	{"core.release_n4096_us", "us"},
	{"core.hop_check_us", "us"},
	{"core.allocs_per_admit", "count"},
	{"core.bytes_per_conn", "B"},
	{"core.readmit_ms", "ms"},
	{"bitstream.sum_us", "us"},
	{"bitstream.filtered_us", "us"},
	{"bitstream.delay_bound_us", "us"},
	{"bitstream.soa_segments", "count"},
	{"wire.setup_us", "us"},
	{"wire.teardown_us", "us"},
	{"wire.query_us", "us"},
	{"wire.batch_us", "us"},
	{"wire.transit_us", "us"},
	{"journal.append_us", "us"},
	{"journal.sync_us", "us"},
	{"journal.syncs_per_op", "count"},
	{"journal.bytes_per_op", "B"},
	{"journal.scan_ms", "ms"},
	{"replica.ship_us", "us"},
	{"replica.ack_us", "us"},
	{"shard.prepare_us", "us"},
	{"shard.commit_us", "us"},
	{"shard.coord_us", "us"},
	{"shard.intent_ship_us", "us"},
	{"shard.intent_syncs_per_setup", "count"},
	{"shard.legs_per_setup", "count"},
	{"runtime.gc_cycles_per_kop", "count"},
	{"trace.overhead_ms", "ms"},
	{"attrib.connect_layers_ms", "ms"},
	{"attrib.connect_coverage", "ratio"},
}

func layerIs(kind obs.Kind) func(Span) bool {
	return func(s Span) bool { return s.Layer == string(kind) }
}

func requestOp(op string) func(Span) bool {
	return func(s Span) bool { return s.Layer == string(obs.KindRequest) && s.Op == op }
}

func fsOp(layer, class string) func(Span) bool {
	return func(s Span) bool { return s.Layer == layer && s.Op == class }
}

func isCoord(s Span) bool { return strings.HasPrefix(s.Src, "coord") }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func msf(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// commonLayers derives the per-layer figures every workload shares from
// the recorded spans: server-side request times (wire), Algorithm 4.1
// hop checks (core), journal appends and the fsyncs timed at the FS
// wrapper (journal), two-phase legs (shard), and GC cycles per thousand
// operations (runtime).
func (r *run) commonLayers(spans []Span, queryOp string) {
	L := r.layer
	L["core.hop_check_us"] = p50us(sel(spans, layerIs(obs.KindHopCheck)))
	L["wire.setup_us"] = p50us(sel(spans, requestOp(wire.OpSetup)))
	L["wire.teardown_us"] = p50us(sel(spans, requestOp(wire.OpTeardown)))
	L["wire.query_us"] = p50us(sel(spans, requestOp(queryOp)))
	L["wire.batch_us"] = p50us(sel(spans, requestOp(wire.OpBatchSetup)))
	L["journal.append_us"] = p50us(sel(spans, layerIs(obs.KindJournalAppend)))
	L["journal.sync_us"] = p50us(sel(spans, fsOp("fs.sync", "journal")))
	L["replica.ship_us"] = p50us(sel(spans, func(s Span) bool { return s.Layer == "repl.ship" }))
	L["replica.ack_us"] = p50us(sel(spans, func(s Span) bool { return s.Layer == "repl.ack" }))
	// The coordinator traces its whole two-phase setup as a commit
	// event; the shard-side legs are the members' events.
	L["shard.prepare_us"] = p50us(sel(spans, func(s Span) bool { return layerIs(obs.KindShardPrepare)(s) && !isCoord(s) }))
	L["shard.commit_us"] = p50us(sel(spans, func(s Span) bool { return layerIs(obs.KindShardCommit)(s) && !isCoord(s) }))

	tracedOps := len(r.calls)
	if tracedOps > 0 {
		syncs := sel(spans, fsOp("fs.sync", "journal"))
		var bytes int64
		for _, s := range sel(spans, fsOp("fs.write", "journal")) {
			bytes += s.Bytes
		}
		L["journal.syncs_per_op"] = float64(len(syncs)) / float64(tracedOps)
		L["journal.bytes_per_op"] = float64(bytes) / float64(tracedOps)
	}
	if r.untracedOps > 0 {
		L["runtime.gc_cycles_per_kop"] = float64(r.untracedGC) / (float64(r.untracedOps) / 1000)
	}
	fmt.Fprintf(r.out, "trace: %d spans over %d traced client operations\n", len(spans), tracedOps)
}

// callsOf returns the traced client operations of one op type.
func (r *run) callsOf(op string) []call {
	var out []call
	for _, c := range r.calls {
		if c.op == op {
			out = append(out, c)
		}
	}
	return out
}

// spanIndex answers "which spans overlap this interval" over a run's
// spans sorted by start.
type spanIndex struct {
	spans  []Span
	maxDur time.Duration
}

func newSpanIndex(spans []Span) spanIndex {
	s := append([]Span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start.Before(s[j].Start) })
	var m time.Duration
	for _, x := range s {
		if x.Dur > m {
			m = x.Dur
		}
	}
	return spanIndex{spans: s, maxDur: m}
}

func (x spanIndex) window(from, to time.Time) []Span {
	lo := sort.Search(len(x.spans), func(i int) bool { return !x.spans[i].Start.Before(from.Add(-x.maxDur)) })
	var out []Span
	for _, s := range x.spans[lo:] {
		if !s.Start.Before(to) {
			break
		}
		if s.End().After(from) {
			out = append(out, s)
		}
	}
	return out
}

// coverageTolerance is how far the measured layer times of a traced
// connect may fall from its client-observed median before the run fails.
const coverageTolerance = 0.15

// attribution records how much of a traced connect the named layers
// account for: layersMS are per-connect sums of layer time on the
// connect's blocking path; the coverage is their median over the traced
// connect median, and must lie within coverageTolerance of 1. Parts are
// printed breakdowns, not all of them summed into layersMS.
func (r *run) attribution(layersMS []float64, parts map[string][]float64) {
	connects := r.tlat[opConnect]
	L := r.layer
	L["attrib.connect_layers_ms"] = quantile(layersMS, 0.5)
	if c := connects.Raw(0.5); c > 0 {
		L["attrib.connect_coverage"] = L["attrib.connect_layers_ms"] / c
	}
	cov := L["attrib.connect_coverage"]
	r.orc.Check(math.Abs(cov-1) <= coverageTolerance,
		"measured layers cover %.1f%% of the traced connect p50, outside 100%% +- %.0f%%", 100*cov, 100*coverageTolerance)
	names := make([]string, 0, len(parts))
	for n := range parts {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(r.out, "attribution: traced connect p50 %.4f ms (n=%d); layers on its blocking path:\n",
		connects.Raw(0.5), connects.N())
	for _, n := range names {
		fmt.Fprintf(r.out, "attribution:   %-28s p50 %.4f ms (n=%d)\n", n, quantile(parts[n], 0.5), len(parts[n]))
	}
	fmt.Fprintf(r.out, "attribution:   %-28s p50 %.4f ms = %.1f%% of connect p50\n", "sum of layers",
		L["attrib.connect_layers_ms"], 100*L["attrib.connect_coverage"])
}

// singleServerAttribution splits each traced connect into the wire
// transit (client-observed minus the server's request time), the core
// admission and the journal (append plus group-commit fsync), using the
// spans inside the connect's own interval. It serves workloads whose
// connects go to one server.
func (r *run) singleServerAttribution(idx spanIndex, calls []call) {
	parts := map[string][]float64{}
	var sums, transits []float64
	for _, c := range calls {
		in := idx.window(c.start, c.end())
		reqs := sel(in, requestOp(wire.OpSetup))
		if len(reqs) == 0 {
			continue
		}
		coreSpans := sel(in, func(s Span) bool {
			return s.Layer == string(obs.KindSetup) && s.Conn == c.conn
		})
		// With pipelined callers several setups may overlap; the
		// connect's own request is the one holding its admission, and
		// among those the one its interval covers most.
		best := reqs[0]
		for _, s := range reqs[1:] {
			own, bestOwn := covered(coreSpans, s.Start, s.End()), covered(coreSpans, best.Start, best.End())
			if own > bestOwn || own == bestOwn && covered([]Span{s}, c.start, c.end()) > covered([]Span{best}, c.start, c.end()) {
				best = s
			}
		}
		transit := c.dur - covered([]Span{best}, c.start, c.end())
		// A pipelined caller's group commit may run beside this admission:
		// the two are unioned, not added.
		jourSpans := sel(in, func(s Span) bool {
			return s.Layer == string(obs.KindJournalAppend) || s.Layer == string(obs.KindGroupCommit)
		})
		transits = append(transits, us(transit))
		parts["wire transit"] = append(parts["wire transit"], msf(transit))
		parts["core admission"] = append(parts["core admission"], msf(covered(coreSpans, best.Start, best.End())))
		parts["journal append+fsync"] = append(parts["journal append+fsync"], msf(covered(jourSpans, best.Start, best.End())))
		sums = append(sums, msf(transit+covered(append(coreSpans, jourSpans...), best.Start, best.End())))
	}
	r.layer["wire.transit_us"] = quantile(transits, 0.5)
	r.attribution(sums, parts)
}
