package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"bullion"
)

// fixture is the read workloads' dataset: ads partitions committed one
// member each, then a compliance erasure of a few users, so scans and
// epochs must skip deleted rows. The generator's row hashes are kept for
// validation; the data itself is not.
type fixture struct {
	dir    string
	schema *bullion.Schema
	rows   int // dataset-global rows, deleted ones included
	live   int
	// deleted, epochHash and serveHash are indexed by global row.
	deleted   []bool
	epochHash []uint64
	serveHash []uint64
	// epochSum is the order-independent sum of epochHash over live rows.
	epochSum     uint64
	bytes        int64
	sparseValues int64
	// members are the member file names; layout fingerprints the
	// manifest, so builds of one seed can be checked for identity.
	members []string
	layout  string
}

// buildFixture generates and ingests parts partitions of partRows rows
// into a new dataset at dir, then erases one user in 64.
func buildFixture(dir string, seed int64, parts, partRows int) (*fixture, error) {
	s, err := adsSchema()
	if err != nil {
		return nil, err
	}
	ds, err := bullion.CreateDataset(dir, s, &bullion.DatasetOptions{DisableCache: true})
	if err != nil {
		return nil, err
	}
	defer ds.Close()
	fx := &fixture{dir: dir, schema: s}
	eh := rowHasher{epochColumns(s)}
	sh := rowHasher{serveColumns(s)}
	for p := 0; p < parts; p++ {
		part, err := genPartition(s, seed, p, partRows, int64(p*partRows/rowsPerUser))
		if err != nil {
			return nil, err
		}
		if fx.epochHash, err = eh.hashRows(part.batch, fx.epochHash); err != nil {
			return nil, err
		}
		if fx.serveHash, err = sh.hashRows(part.batch, fx.serveHash); err != nil {
			return nil, err
		}
		fx.sparseValues += part.sparseValues
		w, err := ds.ShardedWriter(1)
		if err != nil {
			return nil, err
		}
		if err := w.Write(part.batch); err != nil {
			w.Close()
			return nil, err
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
	}
	fx.rows = parts * partRows
	fx.deleted = make([]bool, fx.rows)

	rng := rand.New(rand.NewSource(mixSeed(seed, -1)))
	users := fx.rows / rowsPerUser
	var erase []uint64
	for _, u := range rng.Perm(users)[:users/64] {
		for r := u * rowsPerUser; r < (u+1)*rowsPerUser; r++ {
			erase = append(erase, uint64(r))
			fx.deleted[r] = true
		}
	}
	sort.Slice(erase, func(i, j int) bool { return erase[i] < erase[j] })
	if err := ds.Delete(erase); err != nil {
		return nil, err
	}
	for r, del := range fx.deleted {
		if !del {
			fx.live++
			fx.epochSum += fx.epochHash[r]
		}
	}
	if got := ds.NumLiveRows(); got != uint64(fx.live) {
		return nil, fmt.Errorf("fixture: dataset has %d live rows, model %d", got, fx.live)
	}
	fx.bytes = ds.TotalBytes()
	fx.members, fx.layout = layoutOf(ds.Manifest())
	return fx, nil
}

// liveServeHashes returns the expected serve-projection hashes of the
// live rows in [lo, hi), in row order.
func (fx *fixture) liveServeHashes(lo, hi int, dst []uint64) []uint64 {
	dst = dst[:0]
	for r := lo; r < hi; r++ {
		if !fx.deleted[r] {
			dst = append(dst, fx.serveHash[r])
		}
	}
	return dst
}

// layoutOf lists a manifest's member names and fingerprints its
// per-member row accounting and sizes.
func layoutOf(m *bullion.DatasetManifest) ([]string, string) {
	var names []string
	var b strings.Builder
	for _, f := range m.Files {
		names = append(names, f.Name)
		fmt.Fprintf(&b, "%s:%d/%d/%d;", f.Name, f.Rows, f.LiveRows, f.Bytes)
	}
	return names, b.String()
}
