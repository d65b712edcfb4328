package cache

import (
	"container/list"
	"io"
	"sync/atomic"
)

// The page tier is a plain LRU over exact coalesced runs keyed by
// (member version, offset, length), bounded by Options.PageBytes: a hit
// moves the run to the front and eviction takes the tail. The read
// planner is deterministic for a given projection and filter set, so
// repeated scans ask for byte-identical runs and exact matching hits
// without any range arithmetic. A training epoch re-reads each run for
// the few consecutive batches that share its pages, which recency
// serves directly.

type runKey struct {
	k   Key
	off int64
	n   int
}

type runEntry struct {
	key  runKey
	data []byte
	elem *list.Element
}

// removeRunLocked unlinks e from the LRU and the accounting.
func (c *Cache) removeRunLocked(e *runEntry) {
	c.pageLRU.Remove(e.elem)
	delete(c.runs, e.key)
	c.pageBytes -= int64(len(e.data))
}

// lookupRun copies a cached exact run [off, off+len(p)) into p,
// reporting whether it hit.
func (c *Cache) lookupRun(k Key, p []byte, off int64) bool {
	c.pMu.Lock()
	e, ok := c.runs[runKey{k: k, off: off, n: len(p)}]
	if !ok {
		c.pMu.Unlock()
		return false
	}
	copy(p, e.data)
	c.pageLRU.MoveToFront(e.elem)
	c.pMu.Unlock()
	atomic.AddInt64(&c.pageHits, 1)
	return true
}

// insertRun stores a full successful read, evicting from the LRU tail
// until the budget holds. Oversized runs (bigger than the whole budget)
// are never cached.
func (c *Cache) insertRun(k Key, off int64, data []byte) {
	n := int64(len(data))
	if n == 0 || n > c.opts.PageBytes {
		return
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	c.pMu.Lock()
	defer c.pMu.Unlock()
	rk := runKey{k: k, off: off, n: len(data)}
	if _, ok := c.runs[rk]; ok {
		return
	}
	e := &runEntry{key: rk, data: cp}
	e.elem = c.pageLRU.PushFront(e)
	c.runs[rk] = e
	c.pageBytes += n
	for c.pageBytes > c.opts.PageBytes {
		c.removeRunLocked(c.pageLRU.Back().Value.(*runEntry))
		atomic.AddInt64(&c.pageEvictions, 1)
	}
}

// Reader wraps under with the page tier: ReadAt serves cached runs from
// memory and fills the cache from full successful reads. onErr, when
// non-nil, observes every error under returns (besides io.EOF) — the
// dataset layer uses it to invalidate a member whose backing object was
// replaced under its cached runs. A nil Cache returns under itself.
func (c *Cache) Reader(k Key, under io.ReaderAt, onErr func(error)) io.ReaderAt {
	if c == nil {
		return under
	}
	return &cachedReader{c: c, k: k, under: under, onErr: onErr}
}

type cachedReader struct {
	c     *Cache
	k     Key
	under io.ReaderAt
	onErr func(error)
}

func (r *cachedReader) ReadAt(p []byte, off int64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if r.c.lookupRun(r.k, p, off) {
		return len(p), nil
	}
	atomic.AddInt64(&r.c.pageMisses, 1)
	n, err := r.under.ReadAt(p, off)
	if err != nil {
		if err != io.EOF && r.onErr != nil {
			r.onErr(err)
		}
		return n, err
	}
	if n == len(p) {
		r.c.insertRun(r.k, off, p[:n])
	}
	return n, err
}
