package bench

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"atmcac/internal/core"
	"atmcac/internal/journal"
	"atmcac/internal/obs"
	"atmcac/internal/replica"
	"atmcac/internal/wire"
)

// nodeConfig describes one in-process CAC server.
type nodeConfig struct {
	name    string
	dir     string
	network *core.Network
	rec     *Recorder // nil: untraced run
	shardID string
	// replicate makes the node a sync-mode replication primary serving
	// its standby on a loopback listener of its own; follow makes it the
	// read-only standby of the primary at that replication address.
	replicate bool
	follow    string
}

// node is one CAC server wired the way cmd/cacd wires it: a wire.Server
// over the network, journal-sync durability recovered from its state
// directory, the metrics registry with its tracer, and optionally shard
// duty with its orphan reaper.
type node struct {
	cfg      nodeConfig
	dur      *wire.Durable
	srv      *wire.Server
	reg      *obs.Registry
	addr     string
	done     chan struct{}
	stopReap func()
	prim     *replica.Primary
	sb       *replica.Standby
	replLn   net.Listener
	rep      *wire.RecoveryReport
	// loadTime is the time spent reading and parsing the snapshot and
	// scanning the journal, measured on the same files just before
	// Recover (traced runs only).
	loadTime time.Duration
	scanTime time.Duration
	recovery time.Duration
}

func (c nodeConfig) fs() journal.FS {
	if c.rec == nil {
		return journal.OSFS{}
	}
	return c.rec.FS(c.name)
}

func (c nodeConfig) statePath() string { return filepath.Join(c.dir, "state.json") }

// startNode opens (or recovers) the node's state and starts serving on
// an ephemeral loopback port.
func startNode(cfg nodeConfig) (*node, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	n := &node{cfg: cfg}
	fsys := cfg.fs()
	if cfg.rec != nil {
		// Attribute recovery from outside: time the snapshot load and the
		// journal scan on the same files Recover is about to read.
		t0 := time.Now()
		if _, _, err := wire.NewStateStoreFS(cfg.statePath(), fsys).ReadState(); err != nil {
			return nil, fmt.Errorf("%s: read snapshot: %w", cfg.name, err)
		}
		t1 := time.Now()
		if _, err := journal.ScanFile(fsys, cfg.statePath()+".journal"); err != nil {
			return nil, fmt.Errorf("%s: scan journal: %w", cfg.name, err)
		}
		n.loadTime, n.scanTime = t1.Sub(t0), time.Since(t1)
	}
	start := time.Now()
	dur, err := wire.OpenDurable(wire.DurableConfig{
		StatePath: cfg.statePath(),
		Mode:      wire.DurabilityJournalSync,
		FS:        fsys,
	})
	if err != nil {
		return nil, err
	}
	n.dur = dur
	rep, err := dur.Recover(cfg.network)
	if err != nil {
		_ = dur.Close()
		return nil, fmt.Errorf("%s: recover: %w", cfg.name, err)
	}
	n.recovery = time.Since(start)
	n.rep = rep
	n.reg = obs.NewRegistry()
	var tracer obs.Tracer = obs.NewMetricsTracer(n.reg)
	if cfg.rec != nil {
		tracer = obs.Multi(tracer, cfg.rec.Tracer(cfg.name))
	}
	tracer.Trace(obs.Event{Kind: obs.KindReplay, Restored: rep.Restored, Failed: len(rep.Failed),
		Records: rep.JournalRecords, Duration: n.recovery})
	n.srv = wire.NewServer(cfg.network)
	n.srv.SetDurable(dur)
	if cfg.shardID != "" {
		n.srv.SetShardID(cfg.shardID)
		n.stopReap = n.srv.StartOrphanReaper(time.Second)
	}
	// Replication as cmd/cacd wires it (sync mode, default timeouts, the
	// tracer on the standby), except that the primary gets no tracer: with
	// one, Primary.onAck takes the server's persistMu while the next write
	// may hold it waiting in Ship for its own ack, which stalls that write
	// for the ack timeout now and then. The primary's shipping and acks
	// are timed from outside instead, around Ship and on its stream.
	if cfg.replicate {
		if n.replLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			n.stop()
			return nil, err
		}
		n.prim = replica.NewPrimary(n.srv, replica.PrimaryConfig{Mode: replica.ModeSync})
		n.prim.RegisterMetrics(n.reg)
		var sh wire.Shipper = n.prim
		var rl net.Listener = n.replLn
		if cfg.rec != nil {
			sh = cfg.rec.Shipper(n.prim, cfg.name)
			rl = cfg.rec.ReplListener(n.replLn, cfg.name)
		}
		n.srv.SetShipper(sh)
		go func(p *replica.Primary, l net.Listener) { _ = p.Serve(l) }(n.prim, rl)
	}
	if cfg.follow != "" {
		n.srv.SetStandby(true)
		n.sb = replica.NewStandby(n.srv, replica.StandbyConfig{PrimaryAddr: cfg.follow, Tracer: tracer})
		n.sb.RegisterMetrics(n.reg)
		go func(sb *replica.Standby) { _ = sb.Run() }(n.sb)
	}
	if n.prim != nil || n.sb != nil {
		n.srv.SetReplicationStatus(replica.Status(n.prim, n.sb))
	}
	n.srv.SetObservability(n.reg, tracer)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.stop()
		return nil, err
	}
	n.addr = l.Addr().String()
	if cfg.rec != nil && cfg.shardID != "" {
		// The coordinator calls a member with one request outstanding
		// per connection, so the exchange span is exact.
		l = cfg.rec.Listener(l, cfg.name)
	}
	n.done = make(chan struct{})
	go func() { defer close(n.done); _ = n.srv.Serve(l) }()
	return n, nil
}

// stop kills the node without a final snapshot, the way a crash would:
// the next start must replay the journal.
func (n *node) stop() {
	if n.stopReap != nil {
		n.stopReap()
	}
	if n.sb != nil {
		_ = n.sb.Close()
	}
	if n.prim != nil {
		_ = n.prim.Close()
	}
	if n.srv != nil {
		_ = n.srv.Close()
	}
	if n.done != nil {
		<-n.done
	}
	if n.replLn != nil {
		_ = n.replLn.Close()
	}
	if n.dur != nil {
		_ = n.dur.Close()
	}
}

// admittedSet lists a server's connections as a set.
func admittedSet(ctx context.Context, cl *wire.Client) (map[core.ConnID]bool, error) {
	ids, err := cl.List(ctx)
	if err != nil {
		return nil, err
	}
	set := make(map[core.ConnID]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	return set, nil
}

// sameSet compares a listed set against the client's ledger and
// describes the first difference.
func sameSet(got map[core.ConnID]bool, want map[core.ConnID]bool) (bool, string) {
	for id := range want {
		if !got[id] {
			return false, fmt.Sprintf("%d listed, %d in ledger; ledger connection %q missing", len(got), len(want), id)
		}
	}
	for id := range got {
		if !want[id] {
			return false, fmt.Sprintf("%d listed, %d in ledger; unacknowledged connection %q present", len(got), len(want), id)
		}
	}
	return true, ""
}

// waitAttached waits until a replication primary reports its standby's
// stream live.
func waitAttached(ctx context.Context, n *node) error {
	cl, err := wire.Dial(n.addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		rep, err := cl.Replication(ctx)
		if err != nil {
			return fmt.Errorf("%s: replication status: %w", n.cfg.name, err)
		}
		if rep.Connected {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: standby never attached", n.cfg.name)
		}
	}
}
