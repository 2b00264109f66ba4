package sweep

import (
	"sync"

	"waycache/internal/core"
)

// Store memoizes simulation results by canonical config key. Completed
// results live in a pluggable Backend (in-memory by default, optionally
// tiered over the on-disk resultdb); the Store itself contributes what no
// backend can: in-flight deduplication — when several workers ask for the
// same configuration at once, exactly one simulates it and the rest block
// on its completion — and error memoization, so a bad configuration fails
// every caller with the identical error after a single attempt. Errors are
// memoized in memory only, never persisted: a config that failed this
// process (bad trace file, impossible geometry) is retried by the next
// one. One Store shared across experiments gives cross-experiment
// memoization of common baselines.
//
// The Store also holds the decoded corpus behind Records: built by one
// full scan on the first call and kept current from then on by folding
// in each result the Store itself persists.
type Store struct {
	backend Backend

	mu       sync.Mutex //wclint:lockrank 30
	inflight map[string]*entry
	errs     map[string]error
	hits     int64
	misses   int64
	bErr     error

	// corpusMu makes each backend Put and its pending append one step,
	// and Records takes it around Len, so the entry count always agrees
	// with corpus plus pending unless something wrote around the Store.
	corpusMu  sync.Mutex //wclint:lockrank 32
	built     bool       // corpus exists; until then Puts record nothing
	corpus    []Record   // sorted, exact duplicates collapsed; never mutated
	pending   []Record   // persisted since the last Records call, in log order
	corpusLen int        // backend entries that corpus and pending account for
	rescans   int64      // full rebuilds
}

type entry struct {
	done    chan struct{}
	res     *core.Result
	err     error
	gateErr error // admission denied: entry is void, waiters must retry
}

// NewStore returns a store memoizing into a fresh in-memory backend.
func NewStore() *Store { return NewStoreOn(NewMemory()) }

// NewStoreOn returns a store memoizing into b. Layer backends with Tiered
// to front a durable tier with a fast one (see OpenDiskStore).
func NewStoreOn(b Backend) *Store {
	return &Store{
		backend:  b,
		inflight: make(map[string]*entry),
		errs:     make(map[string]error),
	}
}

// Result returns the memoized result for cfg, simulating it at most once
// across all concurrent callers. Configs driving a custom trace Source
// have no canonical key and bypass the store entirely.
func (s *Store) Result(cfg core.Config) (*core.Result, error) {
	return s.ResultGated(cfg, nil)
}

// Gate admits one simulation: it blocks until the caller may run (e.g.
// acquiring a slot from a shared Budget) and returns the paired release.
// A gate error means the caller was denied — typically cancelled while
// waiting — and no simulation happened.
type Gate func() (release func(), err error)

// ResultGated is Result with simulation admission control: gate is
// invoked only when the store is actually about to simulate — memo hits,
// in-flight joins and backend recalls bypass it entirely, so a shared
// Budget meters real simulation work, not lookups. A gate denial is
// returned to the caller but never memoized (it says nothing about the
// config), and concurrent callers that were waiting on the denied
// attempt retry under their own gate rather than inheriting the denial.
func (s *Store) ResultGated(cfg core.Config, gate Gate) (*core.Result, error) {
	key, ok := cfg.Key()
	if !ok {
		return core.Run(cfg)
	}
	for {
		s.mu.Lock()
		if err, found := s.errs[key]; found {
			s.hits++
			s.mu.Unlock()
			return nil, err
		}
		if e, found := s.inflight[key]; found {
			s.mu.Unlock()
			<-e.done
			if e.gateErr != nil {
				// The worker this caller joined was denied admission
				// (its job was cancelled mid-wait); that denial is not
				// ours to inherit. Retry from scratch under our gate.
				continue
			}
			s.mu.Lock()
			s.hits++
			s.mu.Unlock()
			return e.res, e.err
		}
		e := &entry{done: make(chan struct{})}
		s.inflight[key] = e
		s.mu.Unlock()

		// The backend lookup happens inside the in-flight window, so a slow
		// disk read is also deduplicated across racing callers.
		res, found, berr := s.backend.Get(key)
		if berr != nil {
			s.noteBackendErr(berr)
		}
		switch {
		case found:
			e.res = res
		case gate != nil:
			release, gerr := gate()
			if gerr != nil {
				e.gateErr = gerr
			} else {
				e.res, e.err = s.simulate(cfg, key)
				release()
			}
		default:
			e.res, e.err = s.simulate(cfg, key)
		}
		close(e.done)

		s.mu.Lock()
		delete(s.inflight, key)
		switch {
		case e.gateErr != nil:
			// Nothing ran and nothing was learned: no accounting.
		case e.err != nil:
			s.errs[key] = e.err
			s.misses++
		case found:
			s.hits++
		default:
			s.misses++
		}
		s.mu.Unlock()
		if e.gateErr != nil {
			return nil, e.gateErr
		}
		return e.res, e.err
	}
}

// simulate runs cfg and persists a successful result to the backend.
func (s *Store) simulate(cfg core.Config, key string) (*core.Result, error) {
	res, err := core.Run(cfg)
	if err == nil {
		if perr := s.persist(key, res); perr != nil {
			// The simulation is good; losing the write costs future
			// processes a re-simulation, not this caller its result.
			s.noteBackendErr(perr)
		}
	}
	return res, err
}

// persist stores res and, once a corpus exists, queues its record for
// the next Records call.
func (s *Store) persist(key string, res *core.Result) error {
	s.corpusMu.Lock()
	defer s.corpusMu.Unlock()
	err := s.backend.Put(key, res)
	if err == nil && s.built {
		s.pending = append(s.pending, NewRecord(res))
		s.corpusLen++
	}
	return err
}

func (s *Store) noteBackendErr(err error) {
	s.mu.Lock()
	if s.bErr == nil {
		s.bErr = err
	}
	s.mu.Unlock()
}

// Hits returns how many lookups were served from memo: backend hits plus
// lookups that joined an in-flight simulation or a memoized error.
func (s *Store) Hits() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits
}

// Misses returns how many lookups ran a fresh simulation (including ones
// that failed).
func (s *Store) Misses() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.misses
}

// Len returns the number of memoized results in the backend.
func (s *Store) Len() int { return s.backend.Len() }

// BackendErr returns the first storage failure the store swallowed while
// serving results (a failed disk read falls back to simulation; a failed
// write loses only durability). CLIs surface it as a warning: results are
// still correct, but the on-disk store may be lagging.
func (s *Store) BackendErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bErr
}

// Records returns every stored result flattened to a Record, sorted with
// SortRecords, with exact duplicates collapsed: a walker run and a trace
// replay of the same configuration memoize under distinct keys but
// flatten to the identical record, and must not double-count in
// aggregates. The first call decodes the whole backend; later calls fold
// in the results the Store persisted since, and rescan only when the
// backend grew by writes that went around the Store. The returned slice
// is shared and never mutated; callers must not mutate it either.
func (s *Store) Records() ([]Record, error) {
	sc, ok := s.backend.(Scanner)
	if !ok {
		return nil, nil // a backend that cannot enumerate has no corpus
	}
	s.corpusMu.Lock()
	defer s.corpusMu.Unlock()
	n := s.backend.Len()
	if !s.built || n != s.corpusLen {
		return s.rebuild(sc, n)
	}
	if len(s.pending) > 0 {
		SortRecords(s.pending)
		s.corpus = mergeRecords(s.corpus, s.pending)
		s.pending = s.pending[:0]
	}
	return s.corpus, nil
}

// rebuild decodes the whole backend, which holds n entries, into a fresh
// corpus. The caller holds corpusMu, so no Store write lands mid-scan.
func (s *Store) rebuild(sc Scanner, n int) ([]Record, error) {
	var recs []Record
	err := sc.Scan(func(key string, res *core.Result) error {
		recs = append(recs, NewRecord(res))
		return nil
	})
	if err != nil {
		return nil, err
	}
	SortRecords(recs)
	s.corpus = dedupeRecords(recs)
	s.pending = nil
	s.corpusLen = n
	s.built = true
	s.rescans++
	return s.corpus, nil
}

// CorpusStats reports the corpus as the last Records call left it: its
// record count and how many full rebuilds it has taken.
func (s *Store) CorpusStats() (records int, rescans int64) {
	s.corpusMu.Lock()
	defer s.corpusMu.Unlock()
	return len(s.corpus), s.rescans
}

// mergeRecords merges sorted add into sorted old as a new slice, old
// untouched. Each added record goes after the old ones it compares equal
// to, which is where a stable sort of the backend's log order puts it.
func mergeRecords(old, add []Record) []Record {
	out := make([]Record, 0, len(old)+len(add))
	i := 0
	for _, r := range add {
		for i < len(old) && CompareRecords(old[i], r) <= 0 {
			out = append(out, old[i])
			i++
		}
		out = append(out, r)
	}
	return dedupeRecords(append(out, old[i:]...))
}

// dedupeRecords removes adjacent exact duplicates in place (the slice is
// sorted, so equal records are adjacent).
func dedupeRecords(recs []Record) []Record {
	out := recs[:0]
	for _, r := range recs {
		if len(out) == 0 || r != out[len(out)-1] {
			out = append(out, r)
		}
	}
	return out
}
