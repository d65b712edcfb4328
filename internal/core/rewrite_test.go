package core

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"reflect"
	"testing"
)

// These tests pin the compaction primitive the dataset layer builds on:
// RewriteWithoutRows must produce a file whose scan output is exactly the
// original's live rows minus the dropped set, batch for batch.

// liveMinus returns the original columns restricted to rows not in
// deleted and not in dropped (all indices in the original row space).
func liveMinus(cols []ColumnData, n int, deleted, dropped []uint64) []ColumnData {
	skip := map[uint64]bool{}
	for _, r := range deleted {
		skip[r] = true
	}
	for _, r := range dropped {
		skip[r] = true
	}
	keep := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if !skip[uint64(i)] {
			keep = append(keep, i)
		}
	}
	out := make([]ColumnData, len(cols))
	for i, c := range cols {
		out[i] = permuteColumn(c, keep)
	}
	return out
}

// rewriteAndReopen runs RewriteWithoutRows and opens the result.
func rewriteAndReopen(t *testing.T, f *File, drop []uint64, opts *Options) *File {
	t.Helper()
	out := &memFile{}
	if _, err := f.RewriteWithoutRows(out, drop, opts); err != nil {
		t.Fatal(err)
	}
	rf, err := Open(out, out.Size())
	if err != nil {
		t.Fatal(err)
	}
	return rf
}

// scanColumns drains a full scan with the given options into one
// concatenated column set.
func scanColumns(t *testing.T, f *File, opts ScanOptions) []ColumnData {
	t.Helper()
	sc, err := f.Scan(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	return drainScanner(t, sc)
}

// TestRewriteWithoutRowsScanRoundTrip: deletion-vector deletes plus an
// explicit drop set, rewritten, reopened, and scanned through the
// coalesced planner — the output must equal the original scan minus every
// removed row, for every column type.
func TestRewriteWithoutRowsScanRoundTrip(t *testing.T) {
	schema := testSchema(t)
	rng := rand.New(rand.NewSource(77))
	const n = 5000
	batch := testBatch(t, schema, rng, n)
	opts := &Options{RowsPerPage: 256, GroupRows: 1500, Compliance: Level1}
	mf, f := writeTestFile(t, schema, batch, opts)

	// Mark a scattered set deleted (vector-only at Level 1), then drop a
	// second set at rewrite time — including overlaps, which must not
	// double-remove.
	deleted := []uint64{0, 1, 255, 256, 1499, 1500, 2999, 4999}
	if err := f.DeleteRows(mf, deleted); err != nil {
		t.Fatal(err)
	}
	var dropped []uint64
	for r := uint64(700); r < 900; r++ {
		dropped = append(dropped, r)
	}
	dropped = append(dropped, 255, 3000, 4998) // 255 overlaps the deleted set

	// Expected rows are the written rows restricted to the surviving ids.
	want := liveMinus(batch.Columns, n, deleted, dropped)

	rf := rewriteAndReopen(t, f, dropped, opts)
	if got, wantRows := rf.NumRows(), uint64(n-len(deleted)-len(dropped)+1); got != wantRows {
		t.Fatalf("rewritten file has %d rows, want %d", got, wantRows)
	}

	for _, batchRows := range []int{256, 1024, 100000} {
		coalesced := scanColumns(t, rf, ScanOptions{BatchRows: batchRows})
		for i := range want {
			if !reflect.DeepEqual(coalesced[i], want[i]) {
				t.Errorf("b%d: column %q differs from original-minus-removed",
					batchRows, schema.Fields[i].Name)
			}
		}
	}

	// Page-misaligned batches of the rewritten file must each hold the
	// matching slice of the expected rows.
	scanBatchesMatch(t, rf, want, 300)
}

// scanBatchesMatch scans f (which must have no deleted rows) in batches of
// batchRows and compares each batch to the matching row slice of want.
func scanBatchesMatch(t *testing.T, f *File, want []ColumnData, batchRows int) {
	t.Helper()
	sc, err := f.Scan(ScanOptions{BatchRows: batchRows})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	n := want[0].Len()
	for i, lo := 0, 0; lo < n; i, lo = i+1, lo+batchRows {
		b, err := sc.Next()
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		hi := min(lo+batchRows, n)
		for c := range want {
			if !reflect.DeepEqual(b.Columns[c], sliceColumn(want[c], lo, hi)) {
				t.Fatalf("batch %d: column %d differs from the expected rows", i, c)
			}
		}
	}
	if _, err := sc.Next(); err != io.EOF {
		t.Fatalf("scan continued past the expected rows (err %v)", err)
	}
}

// TestRewriteWithoutRowsByteIdentical pins compaction output byte for
// byte: rewriting a file with Level-1 deletions plus an extra drop set
// must produce exactly the bytes a fresh writer with the same options
// produces from the surviving rows. Row count, page and group sizes are
// mutually misaligned (and misaligned with the scan batches the rewrite
// streams through), so any dependence of the output on how the rewrite
// reads the source shows up as different bytes.
func TestRewriteWithoutRowsByteIdentical(t *testing.T) {
	schema := testSchema(t)
	rng := rand.New(rand.NewSource(91))
	const n = 5003
	batch := testBatch(t, schema, rng, n)
	mf, f := writeTestFile(t, schema, batch, &Options{RowsPerPage: 256, GroupRows: 1500, Compliance: Level1})
	deleted := []uint64{0, 255, 256, 1499, 1500, 4095, 4096, 5002}
	for r := uint64(2000); r < 2300; r++ {
		deleted = append(deleted, r)
	}
	if err := f.DeleteRows(mf, deleted); err != nil {
		t.Fatal(err)
	}
	extra := []uint64{1, 256, 3000, 3001, 4097} // 256 is already deleted

	opts := &Options{RowsPerPage: 300, GroupRows: 1100, Compliance: Level1}
	got := &memFile{}
	ws, err := f.RewriteWithoutRows(got, extra, opts)
	if err != nil {
		t.Fatal(err)
	}

	want := &memFile{}
	w, err := NewWriter(want, schema, opts)
	if err != nil {
		t.Fatal(err)
	}
	survivors := liveMinus(batch.Columns, n, deleted, extra)
	if err := w.Write(&Batch{Schema: schema, Columns: survivors}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.data, want.data) {
		t.Fatalf("rewrite produced %d bytes, fresh write of the survivors %d bytes; contents differ",
			len(got.data), len(want.data))
	}
	if !reflect.DeepEqual(ws, w.WrittenStats()) {
		t.Fatalf("rewrite stats %+v differ from the fresh writer's %+v", ws, w.WrittenStats())
	}
}

// TestGoldenRewriteWithoutRowsRoundTrip runs the same round-trip over the
// committed golden file: rewriting the pinned format, reopening, and
// coalesced-scanning must reproduce the golden table minus the dropped
// rows.
func TestGoldenRewriteWithoutRowsRoundTrip(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading %s (run with -update to regenerate): %v", goldenPath, err)
	}
	mf := &memFile{data: data}
	f, err := Open(mf, mf.Size())
	if err != nil {
		t.Fatal(err)
	}
	n := int(f.NumRows())

	original := scanColumns(t, f, ScanOptions{BatchRows: 1024})
	dropped := []uint64{0, 7, 255, 256, 999, 1000, 1001, 2000, uint64(n - 1)}

	schema, _, opts := goldenTable(t)
	rf := rewriteAndReopen(t, f, dropped, opts)
	if got := rf.NumRows(); got != uint64(n-len(dropped)) {
		t.Fatalf("rewritten golden has %d rows, want %d", got, n-len(dropped))
	}
	want := liveMinus(original, n, nil, dropped)
	got := scanColumns(t, rf, ScanOptions{BatchRows: 700}) // misaligned with 256-row pages
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("golden column %q differs after rewrite round-trip", schema.Fields[i].Name)
		}
	}
	scanBatchesMatch(t, rf, want, 256)

	// The rewrite must also leave a verifiable checksum tree.
	if err := rf.VerifyChecksums(); err != nil {
		t.Fatal(err)
	}
}
