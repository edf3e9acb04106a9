package bench

import (
	"fmt"
	"runtime"
	"time"

	"atmcac/internal/bitstream"
	"atmcac/internal/core"
	"atmcac/internal/rtnet"
)

// hopRequest turns a dense-port connection into the hop request its one
// switch sees.
func hopRequest(q core.ConnRequest) core.HopRequest {
	h := q.Route[0]
	return core.HopRequest{Conn: q.ID, Spec: q.Spec, In: h.In, Out: h.Out, Priority: q.Priority, CDV: q.SourceCDV}
}

// denseSwitch installs the first n dense-port connections of seed on a
// fresh switch (no check: the set is known to fit).
func denseSwitch(seed uint64, n int) (*core.Switch, []core.ConnRequest, error) {
	sw, err := core.NewSwitch(core.SwitchConfig{Name: rtnet.SwitchName(0), QueueCells: denseQueues})
	if err != nil {
		return nil, nil, err
	}
	reqs, _, err := denseConns(seed, "d", n)
	if err != nil {
		return nil, nil, err
	}
	for _, q := range reqs {
		if err := sw.Install(hopRequest(q)); err != nil {
			return nil, nil, err
		}
	}
	return sw, reqs, nil
}

// microLayers is the core scaling run: Switch.Admit and Release on one
// port already carrying 16, 256 and 4096 connections (16 incoming
// links, varied CDVs, two priorities), allocations per admit and heap
// bytes per admitted connection at the largest size; then the bitstream
// operations of one check, timed on the dense port's own envelopes.
func (r *run) microLayers() error {
	sizes := []int{16, 256, 4096}
	probesN := 32
	if r.opts.Small {
		// The self-test only checks that the microrun runs; the metric
		// names keep the full-scale sizes.
		sizes, probesN = []int{16, 64, 256}, 8
	}
	probes, _, err := denseConns(r.opts.Seed, "m", probesN)
	if err != nil {
		return err
	}
	names := []string{"core.admit_n16_us", "core.admit_n256_us", "core.admit_n4096_us"}
	for i, n := range sizes {
		sw, _, err := denseSwitch(r.opts.Seed, n)
		if err != nil {
			return err
		}
		runtime.GC()
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		admit, release := &Lat{}, &Lat{}
		var allocs uint64
		for _, q := range probes {
			h := hopRequest(q)
			var a0, a1 runtime.MemStats
			runtime.ReadMemStats(&a0)
			t0 := time.Now()
			_, err := sw.Admit(h)
			d := time.Since(t0)
			runtime.ReadMemStats(&a1)
			if err != nil {
				return fmt.Errorf("microrun admit at n=%d: %w", n, err)
			}
			allocs += a1.Mallocs - a0.Mallocs
			admit.Add(d)
			t0 = time.Now()
			if err := sw.Release(h.Conn); err != nil {
				return fmt.Errorf("microrun release at n=%d: %w", n, err)
			}
			release.Add(time.Since(t0))
		}
		r.layer[names[i]] = admit.Q(0.5) * 1000
		fmt.Fprintf(r.out, "core microrun: n=%d admit p50 %.1f us, release p50 %.1f us (n=%d probes)\n",
			n, admit.Q(0.5)*1000, release.Q(0.5)*1000, admit.N())
		if i == len(sizes)-1 {
			r.layer["core.release_n4096_us"] = release.Q(0.5) * 1000
			r.layer["core.allocs_per_admit"] = float64(allocs) / float64(len(probes))
			// What the switch holds: the live heap with it minus the live
			// heap once it is dropped, both after a collection.
			sw = nil
			runtime.GC()
			var m2 runtime.MemStats
			runtime.ReadMemStats(&m2)
			r.layer["core.bytes_per_conn"] = float64(int64(m1.HeapAlloc)-int64(m2.HeapAlloc)) / float64(n)
		}
	}
	return r.bitstreamLayers()
}

// bitstreamLayers times the three bitstream operations of one Algorithm
// 4.1 check at the dense port: multiplexing each incoming link's
// envelopes (Sum), filtering each link aggregate (Filtered), and the
// delay bound over the port's actual Soa/Sof (PortEnvelope).
func (r *run) bitstreamLayers() error {
	n := r.denseScale().base
	sw, reqs, err := denseSwitch(r.opts.Seed, n)
	if err != nil {
		return err
	}
	byLink := map[core.PortID][]bitstream.Stream{}
	for _, q := range reqs {
		if q.Priority != 2 {
			continue
		}
		s, err := q.Spec.Stream()
		if err != nil {
			return err
		}
		if s, err = s.Delayed(q.SourceCDV); err != nil {
			return err
		}
		byLink[q.Route[0].In] = append(byLink[q.Route[0].In], s)
	}
	soa2, sof2, err := sw.PortEnvelope(rtnet.RingOutPort, 2)
	if err != nil {
		return err
	}
	soa1, _, err := sw.PortEnvelope(rtnet.RingOutPort, 1)
	if err != nil {
		return err
	}
	sum, filt, bound := &Lat{}, &Lat{}, &Lat{}
	for rep := 0; rep < 15; rep++ {
		t0 := time.Now()
		aggs := make([]bitstream.Stream, 0, len(byLink))
		for _, ss := range byLink {
			aggs = append(aggs, bitstream.Sum(ss...))
		}
		sum.Add(time.Since(t0))
		t0 = time.Now()
		for _, a := range aggs {
			_ = a.Filtered()
		}
		filt.Add(time.Since(t0))
		t0 = time.Now()
		if _, err := bitstream.DelayBound(soa2, sof2); err != nil {
			return err
		}
		bound.Add(time.Since(t0))
	}
	r.layer["bitstream.sum_us"] = sum.Q(0.5) * 1000
	r.layer["bitstream.filtered_us"] = filt.Q(0.5) * 1000
	r.layer["bitstream.delay_bound_us"] = bound.Q(0.5) * 1000
	r.layer["bitstream.soa_segments"] = float64(soa1.Len() + soa2.Len())
	fmt.Fprintf(r.out, "bitstream at the dense port (%d connections, priority 2 over %d links): Soa segments p1 %d p2 %d, Sof p2 %d\n",
		n, len(byLink), soa1.Len(), soa2.Len(), sof2.Len())
	return nil
}
