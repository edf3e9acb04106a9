package bench

import (
	"bufio"
	"encoding/json"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"atmcac/internal/journal"
	"atmcac/internal/obs"
	"atmcac/internal/wire"
)

// Span is one timed interval recorded at a layer boundary: a trace event
// from the program's own hooks (Layer = the event kind) or a filesystem
// call timed by the benchmark's journal.FS wrapper (Layer = fs.write,
// fs.sync or fs.read, Op = the file class).
type Span struct {
	Layer   string        `json:"layer"`
	Op      string        `json:"op,omitempty"`
	Conn    string        `json:"conn,omitempty"`
	Src     string        `json:"src"`
	Start   time.Time     `json:"start"`
	Dur     time.Duration `json:"dur"`
	Sync    time.Duration `json:"sync,omitempty"`
	Bytes   int64         `json:"bytes,omitempty"`
	Records int           `json:"records,omitempty"`
}

// End is the span's end instant.
func (s Span) End() time.Time { return s.Start.Add(s.Dur) }

// Recorder keeps spans in memory while switched on. It is attached to
// the program only through its public hooks: Server.SetObservability
// (which installs it on the network too), Coordinator.SetTracer, the
// coordinator's intent shipping, a journal.FS passed to every durable
// component, and listeners wrapped before they are handed to Serve.
type Recorder struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []Span
}

// SetOn switches recording; while off every hook passes straight
// through.
func (r *Recorder) SetOn(on bool) { r.on.Store(on) }

func (r *Recorder) add(s Span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Spans returns a copy of everything recorded.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Tracer returns an obs.Tracer that records every event as a span tagged
// with src (the component that emitted it).
func (r *Recorder) Tracer(src string) obs.Tracer {
	return obs.TracerFunc(func(ev obs.Event) {
		if !r.on.Load() {
			return
		}
		end := time.Now()
		r.add(Span{
			Layer: string(ev.Kind), Op: ev.Op, Conn: ev.Conn, Src: src,
			Start: end.Add(-ev.Duration), Dur: ev.Duration, Sync: ev.SyncDuration,
			Bytes: ev.Bytes, Records: ev.Records,
		})
	})
}

// FS returns a journal.FS over the real filesystem that times every
// write, fsync and whole-file read, tagged with src.
func (r *Recorder) FS(src string) journal.FS {
	return timingFS{r: r, src: src}
}

// fileClass names what a persisted file is, from its name.
func fileClass(name string) string {
	switch {
	case strings.HasSuffix(name, ".journal"):
		return "journal"
	case strings.Contains(filepath.Base(name), "intent"):
		return "intent"
	default:
		return "state"
	}
}

type timingFS struct {
	r   *Recorder
	src string
}

func (f timingFS) OpenFile(name string, flag int, perm os.FileMode) (journal.File, error) {
	fh, err := journal.OSFS{}.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return timedFile{File: fh, r: f.r, src: f.src, class: fileClass(name)}, nil
}

func (f timingFS) ReadFile(name string) ([]byte, error) {
	if !f.r.on.Load() {
		return os.ReadFile(name)
	}
	start := time.Now()
	b, err := os.ReadFile(name)
	f.r.add(Span{Layer: "fs.read", Op: fileClass(name), Src: f.src, Start: start,
		Dur: time.Since(start), Bytes: int64(len(b))})
	return b, err
}

func (timingFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return journal.OSFS{}.WriteFile(name, data, perm)
}
func (timingFS) Rename(oldname, newname string) error  { return os.Rename(oldname, newname) }
func (timingFS) Remove(name string) error              { return os.Remove(name) }
func (timingFS) Stat(name string) (fs.FileInfo, error) { return os.Stat(name) }
func (timingFS) Truncate(name string, size int64) error {
	return os.Truncate(name, size)
}
func (timingFS) SyncDir(name string) error { return journal.OSFS{}.SyncDir(name) }

type timedFile struct {
	journal.File
	r     *Recorder
	src   string
	class string
}

func (f timedFile) Write(p []byte) (int, error) {
	if !f.r.on.Load() {
		return f.File.Write(p)
	}
	start := time.Now()
	n, err := f.File.Write(p)
	f.r.add(Span{Layer: "fs.write", Op: f.class, Src: f.src, Start: start,
		Dur: time.Since(start), Bytes: int64(n)})
	return n, err
}

func (f timedFile) Sync() error {
	if !f.r.on.Load() {
		return f.File.Sync()
	}
	start := time.Now()
	err := f.File.Sync()
	f.r.add(Span{Layer: "fs.sync", Op: f.class, Src: f.src, Start: start, Dur: time.Since(start)})
	return err
}

// WriteSpans writes the recorded spans to path as JSON lines, one line
// per connection ID (spans without one are grouped under "").
func (r *Recorder) WriteSpans(path string) error {
	byConn := make(map[string][]Span)
	for _, s := range r.Spans() {
		byConn[s.Conn] = append(byConn[s.Conn], s)
	}
	ids := make([]string, 0, len(byConn))
	for id := range byConn {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, id := range ids {
		if err := enc.Encode(struct {
			Conn  string `json:"conn"`
			Spans []Span `json:"spans"`
		}{id, byConn[id]}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sel filters spans.
func sel(spans []Span, keep func(Span) bool) []Span {
	var out []Span
	for _, s := range spans {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

// p50us is the median duration of spans in microseconds (0 without
// spans: the workload does not exercise that layer).
func p50us(spans []Span) float64 {
	xs := make([]float64, len(spans))
	for i, s := range spans {
		xs[i] = float64(s.Dur) / float64(time.Microsecond)
	}
	return quantile(xs, 0.5)
}

// covered returns the length of the union of the spans' intervals
// clipped to [from, to]: the part of a request's wall time during which
// at least one of the named layers was busy.
func covered(spans []Span, from, to time.Time) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, s := range spans {
		a, b := s.Start, s.End()
		if a.Before(from) {
			a = from
		}
		if b.After(to) {
			b = to
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// Listener wraps a server's listener so that each request-response
// exchange on an accepted connection is recorded as a span tagged src:
// from the read that brings a request in while the connection is idle
// to the write of its response. It serves a sequential client, where
// exactly one request is outstanding per connection.
func (r *Recorder) Listener(l net.Listener, src string) net.Listener {
	return timedListener{Listener: l, r: r, src: src}
}

type timedListener struct {
	net.Listener
	r   *Recorder
	src string
}

func (l timedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &timedConn{Conn: c, r: l.r, src: l.src}, nil
}

type timedConn struct {
	net.Conn
	r     *Recorder
	src   string
	mu    sync.Mutex
	start time.Time // zero while idle
}

func (c *timedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.r.on.Load() {
		c.mu.Lock()
		if c.start.IsZero() {
			c.start = time.Now()
		}
		c.mu.Unlock()
	}
	return n, err
}

func (c *timedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	start := c.start
	c.start = time.Time{}
	c.mu.Unlock()
	if !start.IsZero() && c.r.on.Load() {
		c.r.add(Span{Layer: "conn.serve", Src: c.src, Start: start, Dur: time.Since(start)})
	}
	return n, err
}

// Shipper times a replication primary's Ship from outside: in sync mode
// the call covers the record's write to the standby and the wait for its
// ack (layer repl.ship).
func (r *Recorder) Shipper(sh wire.Shipper, src string) wire.Shipper {
	return timedShipper{Shipper: sh, r: r, src: src}
}

type timedShipper struct {
	wire.Shipper
	r   *Recorder
	src string
}

func (t timedShipper) Ship(seq, epoch uint64, payload []byte) error {
	start := time.Now()
	err := t.Shipper.Ship(seq, epoch, payload)
	if t.r.on.Load() {
		t.r.add(Span{Layer: "repl.ship", Src: t.src, Start: start, Dur: time.Since(start), Bytes: int64(len(payload))})
	}
	return err
}

// ReplListener wraps a replication primary's listener: on each standby
// stream it times the ack round trip, from the primary's last write to
// the first bytes read back after it (layer repl.ack). The standby
// answers records and nothing else.
func (r *Recorder) ReplListener(l net.Listener, src string) net.Listener {
	return replListener{Listener: l, r: r, src: src}
}

type replListener struct {
	net.Listener
	r   *Recorder
	src string
}

func (l replListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &replConn{Conn: c, r: l.r, src: l.src}, nil
}

type replConn struct {
	net.Conn
	r       *Recorder
	src     string
	mu      sync.Mutex
	written time.Time // zero until a write awaits its answer
}

func (c *replConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	c.written = time.Now()
	c.mu.Unlock()
	return n, err
}

func (c *replConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.mu.Lock()
		written := c.written
		c.written = time.Time{}
		c.mu.Unlock()
		if !written.IsZero() && c.r.on.Load() {
			c.r.add(Span{Layer: "repl.ack", Src: c.src, Start: written, Dur: time.Since(written)})
		}
	}
	return n, err
}
