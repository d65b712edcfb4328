package core

import (
	"fmt"
	"math/rand"
	"testing"

	"bullion/internal/iostats"
)

// wideFixture writes a 40-column file and returns it with I/O counters.
func wideFixture(t *testing.T, hot []string) (*File, *iostats.Counters, map[string]Int64Data) {
	t.Helper()
	const nCols = 40
	const nRows = 4000
	fields := make([]Field, nCols)
	for i := range fields {
		fields[i] = Field{Name: fmt.Sprintf("feat_%02d", i), Type: Type{Kind: Int64}}
	}
	schema, err := NewSchema(fields...)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	cols := make([]ColumnData, nCols)
	want := map[string]Int64Data{}
	for i := range cols {
		vs := make(Int64Data, nRows)
		for r := range vs {
			vs[r] = rng.Int63n(1 << 30)
		}
		cols[i] = vs
		want[fields[i].Name] = vs
	}
	if len(hot) > 0 {
		reordered, perm, err := ReorderFields(schema, hot)
		if err != nil {
			t.Fatal(err)
		}
		schema = reordered
		cols = ReorderBatchColumns(cols, perm)
	}
	batch, err := NewBatch(schema, cols)
	if err != nil {
		t.Fatal(err)
	}
	mf := &memFile{}
	opts := DefaultOptions()
	opts.GroupRows = 2000
	w, err := NewWriter(mf, schema, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(batch); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var c iostats.Counters
	c.Reset()
	f, err := Open(&iostats.ReaderAt{R: mf, C: &c}, mf.Size())
	if err != nil {
		t.Fatal(err)
	}
	return f, &c, want
}

func TestReorderFields(t *testing.T) {
	schema, _ := NewSchema(
		Field{Name: "a", Type: Type{Kind: Int64}},
		Field{Name: "b", Type: Type{Kind: Int64}},
		Field{Name: "c", Type: Type{Kind: Int64}},
	)
	re, perm, err := ReorderFields(schema, []string{"c", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if re.Fields[0].Name != "c" || re.Fields[1].Name != "a" || re.Fields[2].Name != "b" {
		t.Fatalf("order: %v %v %v", re.Fields[0].Name, re.Fields[1].Name, re.Fields[2].Name)
	}
	if perm[0] != 2 || perm[1] != 0 || perm[2] != 1 {
		t.Fatalf("perm: %v", perm)
	}
	cols := ReorderBatchColumns([]ColumnData{Int64Data{1}, Int64Data{2}, Int64Data{3}}, perm)
	if cols[0].(Int64Data)[0] != 3 || cols[1].(Int64Data)[0] != 1 {
		t.Fatal("batch reorder wrong")
	}
	if _, _, err := ReorderFields(schema, []string{"nope"}); err == nil {
		t.Fatal("unknown hot column accepted")
	}
	if _, _, err := ReorderFields(schema, []string{"a", "a"}); err == nil {
		t.Fatal("duplicate hot column accepted")
	}
}

func TestProjectCoalescedCorrectness(t *testing.T) {
	f, _, want := wideFixture(t, nil)
	names := []string{"feat_05", "feat_06", "feat_07", "feat_30"}
	batch, err := f.Project(names...)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		got := batch.Columns[i].(Int64Data)
		for r := range want[name] {
			if got[r] != want[name][r] {
				t.Fatalf("%s row %d = %d, want %d", name, r, got[r], want[name][r])
			}
		}
	}
}

// Adjacent chunks must coalesce into fewer physical reads than the naive
// per-column projection (one Project call per column, so no two columns
// can share a read).
func TestCoalescedFewerReads(t *testing.T) {
	hot := []string{"feat_10", "feat_20", "feat_30", "feat_35"}
	f, c, _ := wideFixture(t, hot)

	before := c.Snapshot()
	for _, name := range hot {
		if _, err := f.Project(name); err != nil {
			t.Fatal(err)
		}
	}
	naive := c.Snapshot().Sub(before)

	before = c.Snapshot()
	if _, err := f.Project(hot...); err != nil {
		t.Fatal(err)
	}
	coalesced := c.Snapshot().Sub(before)

	// Hot columns are physically adjacent (reordered to the front), so the
	// 4 chunks per group collapse to 1 read per group: 2 groups -> 2 reads.
	if coalesced.ReadOps >= naive.ReadOps {
		t.Fatalf("coalesced %d ops >= naive %d", coalesced.ReadOps, naive.ReadOps)
	}
	if coalesced.ReadOps != 2 {
		t.Fatalf("coalesced ops = %d, want 2 (1 per group)", coalesced.ReadOps)
	}
	if coalesced.ReadBytes != naive.ReadBytes {
		t.Fatalf("coalesced bytes %d != naive %d (must read the same chunks)",
			coalesced.ReadBytes, naive.ReadBytes)
	}
}

// Without reordering, a scattered hot set cannot fully coalesce.
func TestScatteredHotSetReadsMore(t *testing.T) {
	hot := []string{"feat_10", "feat_20", "feat_30", "feat_35"}
	fScattered, cs, _ := wideFixture(t, nil)
	fOrdered, co, _ := wideFixture(t, hot)

	before := cs.Snapshot()
	if _, err := fScattered.Project(hot...); err != nil {
		t.Fatal(err)
	}
	scattered := cs.Snapshot().Sub(before)

	before = co.Snapshot()
	if _, err := fOrdered.Project(hot...); err != nil {
		t.Fatal(err)
	}
	ordered := co.Snapshot().Sub(before)

	if ordered.ReadOps >= scattered.ReadOps {
		t.Fatalf("reordered layout %d ops >= scattered %d", ordered.ReadOps, scattered.ReadOps)
	}
	t.Logf("column reordering: %d reads (hot-first layout) vs %d (scattered)",
		ordered.ReadOps, scattered.ReadOps)
}

func TestCoalescedWithDeletions(t *testing.T) {
	f, _, want := wideFixture(t, nil)
	mf := f.r.(*iostats.ReaderAt).R.(*memFile)
	if err := f.DeleteRows(mf, []uint64{5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	batch, err := f.Project("feat_00")
	if err != nil {
		t.Fatal(err)
	}
	got := batch.Columns[0].(Int64Data)
	if len(got) != 3997 {
		t.Fatalf("rows = %d, want 3997", len(got))
	}
	orig := want["feat_00"]
	if got[5] != orig[8] {
		t.Fatalf("row alignment after deletion: got[5]=%d, want orig[8]=%d", got[5], orig[8])
	}
}

func TestCoalescedUnknownColumn(t *testing.T) {
	f, _, _ := wideFixture(t, nil)
	if _, err := f.Project("nope"); err == nil {
		t.Fatal("unknown column accepted")
	}
}
