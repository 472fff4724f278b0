package snappin

import "store"

// Unpinned reads: every convenience accessor on store.Table pins its
// own version, so consecutive calls can straddle a write.
func torn(db *store.DB) int {
	t := db.Table("events")
	n := t.Len()        // want "store.Table.Len pins its own version per call"
	rows := t.Rows()    // want "store.Table.Rows pins its own version per call"
	_, _ = t.Stats("c") // want "store.Table.Stats pins its own version per call"
	_ = rows
	return n
}

// Chained off DB.Table without pinning is the same violation.
func chained(db *store.DB) *store.SegSet {
	return db.Table("events").Segments() // want "store.Table.Segments pins its own version per call"
}

// Pinned reads: one Snap (or DB.Snapshot) then every read through the
// TableSnap — the same accessor names, one version.
func pinned(db *store.DB) int {
	s := db.Table("events").Snap()
	n := s.Len()
	_ = s.Rows()
	_, _ = s.Stats("c")
	_ = s.Segments()

	sn := db.Snapshot()
	return n + sn.Table("events").Len()
}

// Version probes are not reads of table data: current-ness is their
// point (cache invalidation tokens), so they are never flagged.
func probe(t *store.Table) uint64 {
	return t.Version()
}
