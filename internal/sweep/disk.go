package sweep

import (
	"waycache/internal/resultdb"
)

// OpenDiskStore opens (creating as needed) the on-disk result database in
// dir and returns a Store whose in-memory tier fronts it: lookups hit
// memory first, then the log; fresh simulations append to the log as they
// finish. Close the returned DB when done to release the log's lock
// (results are durable in the log either way).
func OpenDiskStore(dir string) (*Store, *resultdb.DB, error) {
	db, err := resultdb.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	return NewStoreOn(Tiered{Front: NewMemory(), Back: db}), db, nil
}

// Backend conformance: the on-disk database plugs in wherever Memory does,
// and both it and Tiered take the bulk encoded-ingest fast path.
var _ Backend = (*resultdb.DB)(nil)
var _ Scanner = (*resultdb.DB)(nil)
var _ EncodedPutter = (*resultdb.DB)(nil)
var _ interface {
	Backend
	Scanner
	EncodedPutter
} = Tiered{}
var _ Scanner = (*Memory)(nil)
