package main

import (
	"bytes"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bullion"
)

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer's epoch. parent indexes the tracer's span list (-1 = root or
// unknown). A storage span issued from a goroutine other than its op's
// (a scan worker, a loader read-ahead stream, an encode pipeline) is
// async: it keeps its op id but is not a child of any span, because the
// op's own spans did not block on it directly.
type span struct {
	name       string
	start, end int64
	parent     int32
	op         int64
	async      bool
}

// tracer keeps every span of a traced window in memory; nothing is
// written out until the benchmark ends. A disabled tracer records
// nothing and costs one branch per call.
type tracer struct {
	on bool
	t0 time.Time

	mu    sync.Mutex
	spans []span

	// lanes maps a client goroutine's id to its lane, so a storage call
	// can find the span that is blocked on it.
	lanes  sync.Map // uint64 -> *lane
	nextOp atomic.Int64
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// lane is one client goroutine's view of the tracer: the stack of its
// open spans and the op it is running. Only its own goroutine touches
// stack and op, except that storage calls made on that same goroutine
// read the top of the stack.
type lane struct {
	t     *tracer
	gid   uint64
	stack []int32
	op    int64
}

// lane registers the calling goroutine as a client lane. Call it on the
// goroutine that will issue the ops, and release it when done.
func (t *tracer) lane() *lane {
	l := &lane{t: t}
	if t.on {
		l.gid = goid()
		t.lanes.Store(l.gid, l)
	}
	return l
}

func (l *lane) release() {
	if l.t.on {
		l.t.lanes.Delete(l.gid)
	}
}

// beginOp starts a new op root span.
func (l *lane) beginOp(name string) int32 {
	if !l.t.on {
		return -1
	}
	l.op = l.t.nextOp.Add(1)
	return l.begin(name)
}

// begin opens a span as a child of the lane's innermost open span.
func (l *lane) begin(name string) int32 {
	if !l.t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
	}
	t := l.t
	t.mu.Lock()
	idx := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: t.now(), parent: parent, op: l.op})
	t.mu.Unlock()
	l.stack = append(l.stack, idx)
	return idx
}

// end closes the span begin returned; spans close innermost first.
func (l *lane) end(idx int32) {
	if idx < 0 {
		return
	}
	t := l.t
	t.mu.Lock()
	t.spans[idx].end = t.now()
	t.mu.Unlock()
	l.stack = l.stack[:len(l.stack)-1]
}

// leaf records a finished span of a call made outside any lane stack
// (storage calls). On a lane's own goroutine the span is a child of the
// lane's innermost open span; elsewhere it is async.
func (t *tracer) leaf(name string, start int64) {
	end := t.now()
	s := span{name: name, start: start, end: end, parent: -1, async: true}
	if v, ok := t.lanes.Load(goid()); ok {
		l := v.(*lane)
		s.op, s.async = l.op, false
		if n := len(l.stack); n > 0 {
			s.parent = l.stack[n-1]
		}
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// goid parses the calling goroutine's id from its stack header
// ("goroutine 123 [running]:"). Used only by traced runs; the cost is
// part of the reported tracing overhead.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// layerOf maps a span name to the layer its self time is charged to.
var layerOf = map[string]string{
	"serve.op": "bench.op", "epoch.op": "bench.op", "churn.op": "bench.op",
	"bench.check": "bench.check", "bench.gen": "bench.gen",
	"dataset.open": "dataset.open", "dataset.scan": "dataset.open", "dataset.close": "dataset.open",
	"dataset.delete": "dataset.commit", "dataset.vacuum": "dataset.commit",
	"enc.writer": "enc.encode", "enc.write": "enc.encode", "enc.close": "enc.encode", "enc.compact": "enc.encode",
	"core.next":  "core.next",
	"loader.new": "loader.plan", "loader.next": "loader.next", "loader.close": "loader.next",
	"footer.open": "footer.open",
}

// traceSummary is what a traced window's spans reduce to.
type traceSummary struct {
	// selfMs sums each layer's self time over every op, in ms.
	selfMs map[string]float64
	// wallMs sums the op root spans' durations, in ms; ops counts them.
	wallMs float64
	ops    int
	// busyMs sums the full duration of every span by name, in ms.
	busyMs map[string]float64
	spans  int
}

// summarize computes self times: a span's duration minus the union of
// its synchronous children's intervals (clipped to the span). Storage
// spans are leaves and charged to layer "storage". The self times of
// one op's span tree therefore sum exactly to the op's wall time; the
// op root's own share ("bench.op") is the time no layer accounts for.
func (t *tracer) summarize() traceSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	ts := traceSummary{
		selfMs: map[string]float64{},
		busyMs: map[string]float64{},
		spans:  len(t.spans),
	}
	children := make([][]int32, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 && !s.async {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	for i, s := range t.spans {
		if s.end == 0 {
			continue // still open when the window closed
		}
		d := float64(s.end-s.start) / 1e6
		ts.busyMs[s.name] += d
		if s.async {
			continue
		}
		layer, ok := layerOf[s.name]
		if !ok {
			layer = "storage"
		}
		ts.selfMs[layer] += d - covered(t.spans, children[i], s.start, s.end)/1e6
		if s.parent < 0 {
			ts.wallMs += d
			ts.ops++
		}
	}
	return ts
}

// covered returns how many nanoseconds of [lo, hi) the given spans cover.
func covered(spans []span, idx []int32, lo, hi int64) float64 {
	if len(idx) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(idx))
	for _, i := range idx {
		s, e := spans[i].start, spans[i].end
		if e == 0 {
			e = hi
		}
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curS, curE int64
	curS, curE = -1, -1
	for _, v := range iv {
		if v[0] > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = v[0], v[1]
		} else if v[1] > curE {
			curE = v[1]
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return float64(total)
}

// ioCounters are the storage layer's work counts. They are kept in
// untraced runs too (atomic adds), so both runs execute the same code.
type ioCounters struct {
	readOps, readBytes      atomic.Int64
	writeBytes              atomic.Int64
	syncOps, syncDirOps     atomic.Int64
	renameOps, httpRequests atomic.Int64
}

type ioSnapshot struct {
	readOps, readBytes, writeBytes, syncOps, syncDirOps, renameOps, httpRequests int64
}

func (c *ioCounters) snapshot() ioSnapshot {
	return ioSnapshot{
		readOps: c.readOps.Load(), readBytes: c.readBytes.Load(),
		writeBytes: c.writeBytes.Load(),
		syncOps:    c.syncOps.Load(), syncDirOps: c.syncDirOps.Load(),
		renameOps: c.renameOps.Load(), httpRequests: c.httpRequests.Load(),
	}
}

func (a ioSnapshot) sub(b ioSnapshot) ioSnapshot {
	return ioSnapshot{
		readOps: a.readOps - b.readOps, readBytes: a.readBytes - b.readBytes,
		writeBytes: a.writeBytes - b.writeBytes,
		syncOps:    a.syncOps - b.syncOps, syncDirOps: a.syncDirOps - b.syncDirOps,
		renameOps: a.renameOps - b.renameOps, httpRequests: a.httpRequests - b.httpRequests,
	}
}

// tracedBackend is the counting/timing storage.Backend wrapper passed as
// DatasetOptions.Backend. It forwards Root unchanged, so the artifact
// cache keys members exactly as it would for the wrapped backend.
type tracedBackend struct {
	inner bullion.StorageBackend
	c     *ioCounters
	t     *tracer
}

func (b *tracedBackend) start() int64 {
	if b.t.on {
		return b.t.now()
	}
	return 0
}

func (b *tracedBackend) done(name string, start int64) {
	if b.t.on {
		b.t.leaf(name, start)
	}
}

func (b *tracedBackend) ReadAt(name string) (bullion.StorageFile, int64, error) {
	s := b.start()
	f, n, err := b.inner.ReadAt(name)
	b.done("storage.open", s)
	if err != nil {
		return nil, 0, err
	}
	return wrapFile(f, b), n, nil
}

func (b *tracedBackend) Create(name string) (bullion.StorageFile, error) {
	s := b.start()
	f, err := b.inner.Create(name)
	b.done("storage.create", s)
	if err != nil {
		return nil, err
	}
	return wrapFile(f, b), nil
}

func (b *tracedBackend) Rename(oldName, newName string) error {
	s := b.start()
	err := b.inner.Rename(oldName, newName)
	b.done("storage.rename", s)
	b.c.renameOps.Add(1)
	return err
}

func (b *tracedBackend) Remove(name string) error {
	s := b.start()
	err := b.inner.Remove(name)
	b.done("storage.remove", s)
	return err
}

func (b *tracedBackend) SyncDir() error {
	s := b.start()
	err := b.inner.SyncDir()
	b.done("storage.syncdir", s)
	b.c.syncDirOps.Add(1)
	return err
}

func (b *tracedBackend) List() ([]string, error) {
	s := b.start()
	names, err := b.inner.List()
	b.done("storage.list", s)
	return names, err
}

func (b *tracedBackend) Root() string { return b.inner.Root() }

// tracedFile counts and times one handle's reads, writes and syncs.
type tracedFile struct {
	f bullion.StorageFile
	b *tracedBackend
}

// etagFile forwards the optional ETag upgrade of HTTP handles, so the
// cache's version keys are the same with and without the wrapper.
type etagFile struct {
	*tracedFile
	et interface{ ETag() string }
}

func (f etagFile) ETag() string { return f.et.ETag() }

func wrapFile(f bullion.StorageFile, b *tracedBackend) bullion.StorageFile {
	tf := &tracedFile{f: f, b: b}
	if et, ok := f.(interface{ ETag() string }); ok {
		return etagFile{tf, et}
	}
	return tf
}

func (f *tracedFile) ReadAt(p []byte, off int64) (int, error) {
	s := f.b.start()
	n, err := f.f.ReadAt(p, off)
	f.b.done("storage.read", s)
	f.b.c.readOps.Add(1)
	f.b.c.readBytes.Add(int64(n))
	return n, err
}

func (f *tracedFile) WriteAt(p []byte, off int64) (int, error) {
	s := f.b.start()
	n, err := f.f.WriteAt(p, off)
	f.b.done("storage.write", s)
	f.b.c.writeBytes.Add(int64(n))
	return n, err
}

func (f *tracedFile) Write(p []byte) (int, error) {
	s := f.b.start()
	n, err := f.f.Write(p)
	f.b.done("storage.write", s)
	f.b.c.writeBytes.Add(int64(n))
	return n, err
}

func (f *tracedFile) Sync() error {
	s := f.b.start()
	err := f.f.Sync()
	f.b.done("storage.sync", s)
	f.b.c.syncOps.Add(1)
	return err
}

func (f *tracedFile) Close() error { return f.f.Close() }

// countRequests counts every request the dataset HTTP handler serves.
func countRequests(h http.Handler, c *ioCounters) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.httpRequests.Add(1)
		h.ServeHTTP(w, r)
	})
}
