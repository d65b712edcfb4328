package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"bullion"
)

// Churn workload parameters. Each cycle appends one partition of
// churnPartRows rows through a ShardedWriter of churnShards members,
// erases churnErasures single users (one Delete each) and runs a
// verifying scan. Every churnRetireEvery cycles it retires as many of the
// oldest partitions as were appended since the last retirement, then
// compacts members whose live ratio fell below churnCompactThreshold and
// vacuums — so the member count oscillates between churnBaseParts and
// churnBaseParts+churnRetireEvery partitions.
//
// The erase rate and the compaction threshold are assumptions, not
// traffic from the paper or a published trace (neither gives one):
//   - churnErasures: 24 users of 8 rows each per 512-row append, so 37.5%
//     of ingested rows later go through a single-user Delete. The rate
//     gives every member several erasures per round and erase latency
//     96 samples per round.
//   - churnCompactThreshold: 0.97, so a 256-row member that lost a single
//     user (248/256 = 0.969) is rewritten. Compact then re-encodes
//     members every round rather than only dropping fully retired ones,
//     which is what gives compact_rows_per_s its samples; at the CLI
//     default of 0.5 few members would ever be rewritten.
const (
	churnBaseParts        = 4
	churnPartRows         = 512
	churnShards           = 2
	churnErasures         = 24
	churnRetireEvery      = 4
	churnCompactThreshold = 0.97
	// churnProbeRounds is the round prefix the exact-repeat counts cover.
	churnProbeRounds = 1
)

// churnMember models one member file: its rows' uids and key hashes in
// file order, and which are deleted.
type churnMember struct {
	part    int
	uids    []int64
	keys    []uint64
	deleted []bool
	live    int
}

// churnRun owns the churn dataset and the model the benchmark checks it
// against.
type churnRun struct {
	dir     string
	seed    int64
	schema  *bullion.Schema
	io      *ioCounters
	backend *tracedBackend
	cache   *bullion.ArtifactCache
	ds      *bullion.Dataset
	keyer   rowHasher
	rng     *rand.Rand

	members   []*churnMember
	nextPart  int
	cycles    int
	liveUsers []int64
	// parsed is the manifest version each member's footer was last
	// parsed at (traced runs re-parse changed members).
	parsed map[string]string
}

// newChurnRun builds the initial dataset: churnBaseParts partitions.
func newChurnRun(dir string, seed int64, io *ioCounters) (*churnRun, error) {
	s, err := adsSchema()
	if err != nil {
		return nil, err
	}
	local, err := bullion.NewLocalBackend(dir)
	if err != nil {
		return nil, err
	}
	c := &churnRun{
		dir:     dir,
		seed:    seed,
		schema:  s,
		io:      io,
		backend: &tracedBackend{inner: local, c: io, t: newTracer(false)},
		cache:   bullion.NewCache(bullion.CacheOptions{PageBytes: 16 << 20}),
		keyer:   rowHasher{[]string{"uid", "req_id_0"}},
		rng:     rand.New(rand.NewSource(mixSeed(seed, -4))),
		parsed:  map[string]string{},
	}
	c.ds, err = bullion.CreateDataset(dir, s, &bullion.DatasetOptions{Backend: c.backend, Cache: c.cache})
	if err != nil {
		c.cache.Close()
		return nil, err
	}
	ln := newTracer(false).lane()
	var w windowResult
	for i := 0; i < churnBaseParts; i++ {
		if err := c.appendPartition(ln, &w); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

func (c *churnRun) close() {
	c.ds.Close()
	c.cache.Close()
}

// window runs whole rounds of churnRetireEvery cycles, the last of each
// retiring and compacting, until d has passed and at least minRounds
// have run. A round is the churn op: every round holds the same mix of
// appends, erasures at each dataset size, and one compaction. A non-nil
// enc collects the encodings of the appended members.
func (c *churnRun) window(tr *tracer, d time.Duration, minRounds int, enc *encStats) *windowResult {
	c.backend.t = tr
	ln := tr.lane()
	defer ln.release()
	w := newWindow(c.io, c.cache)
	w.enc = enc
	start := time.Now()
	for rounds := 0; rounds < max(1, minRounds) || time.Since(start) < d; rounds++ {
		op := ln.beginOp("churn.op")
		t0 := time.Now()
		for i := 0; i < churnRetireEvery; i++ {
			c.cycle(ln, w)
		}
		w.latMs = append(w.latMs, msOf(time.Since(t0)))
		ln.end(op)
		if tr.on {
			c.parseFooters(w)
		}
	}
	w.finish(start)
	return w
}

// cycle is one churn cycle. Each step is one attempted, validated unit.
func (c *churnRun) cycle(ln *lane, w *windowResult) {
	c.cycles++
	w.cycles++
	w.attempted++
	if err := c.appendPartition(ln, w); err != nil {
		w.fail(fmt.Errorf("append: %w", err))
	}
	erased := map[int64]bool{}
	for i := 0; i < churnErasures && len(c.liveUsers) > 0; i++ {
		w.attempted++
		j := c.rng.Intn(len(c.liveUsers))
		u := c.liveUsers[j]
		c.liveUsers[j] = c.liveUsers[len(c.liveUsers)-1]
		c.liveUsers = c.liveUsers[:len(c.liveUsers)-1]
		erased[u] = true
		rows := c.rowsOf(func(m *churnMember, r int) bool { return m.uids[r] == u })
		before := c.io.snapshot()
		t0 := time.Now()
		err := c.delete(ln, rows)
		w.eraseMs = append(w.eraseMs, msOf(time.Since(t0)))
		w.eraseWriteBytes += c.io.snapshot().sub(before).writeBytes
		w.erasedRows += int64(len(rows))
		if err != nil {
			w.fail(fmt.Errorf("erase user %d: %w", u, err))
		}
	}
	w.attempted++
	if err := c.verify(ln, w, erased); err != nil {
		w.fail(err)
	}
	if c.cycles%churnRetireEvery == 0 {
		w.attempted++
		if err := c.retire(ln, w); err != nil {
			w.fail(err)
		}
	}
}

// appendPartition generates the next partition and ingests it as
// churnShards members in one commit.
func (c *churnRun) appendPartition(ln *lane, w *windowResult) error {
	g := ln.begin("bench.gen")
	p := c.nextPart
	c.nextPart++
	userBase := int64(p * churnPartRows / rowsPerUser)
	half := churnPartRows / churnShards
	var parts []*partition
	var added []*churnMember
	for i := 0; i < churnShards; i++ {
		part, err := genPartition(c.schema, c.seed, p*churnShards+i, half, userBase+int64(i*half/rowsPerUser))
		if err != nil {
			ln.end(g)
			return err
		}
		keys, err := c.keyer.hashRows(part.batch, nil)
		if err != nil {
			ln.end(g)
			return err
		}
		ui, _ := c.schema.Lookup("uid")
		uids := append([]int64(nil), part.batch.Columns[ui].(bullion.Int64Data)...)
		parts = append(parts, part)
		added = append(added, &churnMember{part: p, uids: uids, keys: keys, deleted: make([]bool, half), live: half})
		w.sparseValues += part.sparseValues
	}
	ln.end(g)

	t0 := time.Now()
	s := ln.begin("enc.writer")
	sw, err := c.ds.ShardedWriter(churnShards)
	ln.end(s)
	if err != nil {
		return err
	}
	for _, part := range parts {
		s := ln.begin("enc.write")
		err := sw.Write(part.batch)
		ln.end(s)
		if err != nil {
			sw.Close()
			return err
		}
	}
	s = ln.begin("enc.close")
	err = sw.Close()
	ln.end(s)
	w.appendSec += time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	w.appendRows += churnPartRows
	c.members = append(c.members, added...)
	files := c.ds.Manifest().Files
	var names []string
	for _, f := range files[len(files)-churnShards:] {
		w.appendBytes += f.Bytes
		names = append(names, f.Name)
	}
	if w.enc != nil {
		// Later cycles may compact these members away: read their
		// encodings now.
		if err := w.enc.add(c.dir, names); err != nil {
			return err
		}
	}
	for u := userBase; u < userBase+churnPartRows/rowsPerUser; u++ {
		c.liveUsers = append(c.liveUsers, u)
	}
	return c.checkModel()
}

// rowsOf returns the dataset-global ids of the live rows match selects.
func (c *churnRun) rowsOf(match func(m *churnMember, r int) bool) []uint64 {
	var rows []uint64
	var base uint64
	for _, m := range c.members {
		for r := range m.uids {
			if !m.deleted[r] && match(m, r) {
				rows = append(rows, base+uint64(r))
			}
		}
		base += uint64(len(m.uids))
	}
	return rows
}

// delete erases global rows and applies the erasure to the model.
func (c *churnRun) delete(ln *lane, rows []uint64) error {
	s := ln.begin("dataset.delete")
	err := c.ds.Delete(rows)
	ln.end(s)
	if err != nil {
		return err
	}
	i := 0
	var base uint64
	for _, m := range c.members {
		for ; i < len(rows) && rows[i] < base+uint64(len(m.uids)); i++ {
			m.deleted[rows[i]-base] = true
			m.live--
		}
		base += uint64(len(m.uids))
	}
	return c.checkModel()
}

// checkModel compares the manifest's per-member row accounting with the
// model's.
func (c *churnRun) checkModel() error {
	files := c.ds.Manifest().Files
	if len(files) != len(c.members) {
		return fmt.Errorf("manifest has %d members, model %d", len(files), len(c.members))
	}
	for i, f := range files {
		m := c.members[i]
		if f.Rows != uint64(len(m.uids)) || f.LiveRows != uint64(m.live) {
			return fmt.Errorf("member %s: %d rows %d live, model %d rows %d live",
				f.Name, f.Rows, f.LiveRows, len(m.uids), m.live)
		}
	}
	return nil
}

// verify scans every live row's key columns and checks them against the
// model: the multiset of (uid, req_id) hashes must match exactly, and no
// row of a user erased this cycle may appear.
func (c *churnRun) verify(ln *lane, w *windowResult, erased map[int64]bool) error {
	var want uint64
	wantRows := 0
	for _, m := range c.members {
		for r, k := range m.keys {
			if !m.deleted[r] {
				want += k
				wantRows++
			}
		}
	}
	s := ln.begin("dataset.scan")
	sc, err := c.ds.Scan(bullion.DatasetScanOptions{ScanOptions: bullion.ScanOptions{Columns: c.keyer.names}})
	ln.end(s)
	if err != nil {
		return fmt.Errorf("verify scan: %w", err)
	}
	defer sc.Close()
	var got uint64
	gotRows := 0
	var hs []uint64
	for {
		s := ln.begin("core.next")
		b, err := sc.Next()
		ln.end(s)
		if err == io.EOF {
			st := sc.Stats()
			addScanStats(&w.scan, st.ScanStats)
			w.filesPruned += int64(st.FilesPruned)
			break
		}
		if err != nil {
			return fmt.Errorf("verify scan: %w", err)
		}
		k := ln.begin("bench.check")
		hs, err = c.keyer.hashRows(b, hs[:0])
		ui, _ := b.Schema.Lookup("uid")
		for _, u := range b.Columns[ui].(bullion.Int64Data) {
			if erased[u] {
				err = fmt.Errorf("verify scan: erased user %d is still visible", u)
			}
		}
		ln.end(k)
		if err != nil {
			return err
		}
		for _, h := range hs {
			got += h
		}
		gotRows += len(hs)
	}
	if gotRows != wantRows || got != want {
		return fmt.Errorf("verify scan: %d live rows with hash %x, model %d rows with hash %x", gotRows, got, wantRows, want)
	}
	if n := c.ds.NumLiveRows(); n != uint64(wantRows) {
		return fmt.Errorf("dataset reports %d live rows, model %d", n, wantRows)
	}
	return nil
}

// retire deletes every live row of the partitions appended before the
// last churnRetireEvery, compacts and vacuums.
func (c *churnRun) retire(ln *lane, w *windowResult) error {
	cut := c.nextPart - churnBaseParts
	rows := c.rowsOf(func(m *churnMember, r int) bool { return m.part < cut })
	if err := c.delete(ln, rows); err != nil {
		return fmt.Errorf("retire: %w", err)
	}
	kept := c.liveUsers[:0]
	for _, u := range c.liveUsers {
		if u >= int64(cut*churnPartRows/rowsPerUser) {
			kept = append(kept, u)
		}
	}
	c.liveUsers = kept

	// The model applies Compact's rule: members below the live-ratio
	// threshold are rewritten with only their live rows, or dropped when
	// none are left.
	var next []*churnMember
	var rewrite int64
	for _, m := range c.members {
		switch {
		case m.live == len(m.uids) || float64(m.live)/float64(len(m.uids)) >= churnCompactThreshold:
			next = append(next, m)
		case m.live > 0:
			nm := &churnMember{part: m.part, live: m.live, deleted: make([]bool, m.live)}
			for r := range m.uids {
				if !m.deleted[r] {
					nm.uids = append(nm.uids, m.uids[r])
					nm.keys = append(nm.keys, m.keys[r])
				}
			}
			next = append(next, nm)
			rewrite += int64(m.live)
		}
	}
	before := c.io.snapshot()
	t0 := time.Now()
	s := ln.begin("enc.compact")
	_, err := c.ds.Compact(churnCompactThreshold)
	ln.end(s)
	w.compactSec += time.Since(t0).Seconds()
	w.compactBytes += c.io.snapshot().sub(before).writeBytes
	if err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	w.compactRows += rewrite
	c.members = next
	if err := c.checkModel(); err != nil {
		return fmt.Errorf("after compact: %w", err)
	}
	s = ln.begin("dataset.vacuum")
	rep, err := c.ds.VacuumWithReport()
	ln.end(s)
	if err != nil {
		return fmt.Errorf("vacuum: %w", err)
	}
	w.retainedGens += int64(len(rep.RetainedGenerations))
	w.vacuums++
	return nil
}

// parseFooters times bullion.Open over the bytes of every member whose
// manifest entry changed since its footer was last parsed — deletes
// rewrite footers and compaction writes new members, so each forces a
// re-parse.
func (c *churnRun) parseFooters(w *windowResult) {
	for _, f := range c.ds.Manifest().Files {
		v := fmt.Sprintf("%d|%d", f.LiveRows, f.Bytes)
		if c.parsed[f.Name] == v {
			continue
		}
		c.parsed[f.Name] = v
		if err := w.footer.parse(filepath.Join(c.dir, f.Name)); err != nil {
			w.fail(err)
		}
	}
}

// footerStat accumulates bullion.Open parses of member bytes.
type footerStat struct {
	parses int64
	ns     int64
	bytes  int64
}

func (fs *footerStat) parse(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	t0 := time.Now()
	f, err := bullion.Open(bytes.NewReader(data), int64(len(data)))
	fs.ns += int64(time.Since(t0))
	if err != nil {
		return fmt.Errorf("footer of %s: %w", path, err)
	}
	fs.parses++
	fs.bytes += int64(f.Stats().FooterBytes)
	return f.Close()
}

// fsck audits the dataset deeply; the churn run must end clean.
func (c *churnRun) fsck() error {
	rep, err := bullion.FsckDataset(c.dir, nil, true)
	if err != nil {
		return err
	}
	if !rep.OK() {
		return fmt.Errorf("fsck: dataset is not clean: %+v", rep)
	}
	return nil
}
