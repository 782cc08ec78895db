package raft

import "sync"

// Storage persists a node's log and its term. The node writes through
// on every append and reads it all back at construction, so a node
// restarted on the same Storage resumes where it stopped.
type Storage interface {
	// Term returns the persisted term.
	Term() uint64
	// SetTerm persists term.
	SetTerm(term uint64)
	// Base returns the log's compaction point: the index and term of
	// the last entry dropped by compaction (0, 0 when the log is
	// complete from index 1). Entries returns only entries above it.
	Base() (index, term uint64)
	// Entries returns the persisted log above Base, in index order.
	Entries() []Entry
	// Append appends entries (contiguous with the existing log).
	Append(entries []Entry)
}

// Syncer is optionally implemented by Storage backends whose writes
// buffer in the OS (WALStorage). The node calls Sync once per
// group-committed run of entries — after appending the whole run,
// before committing it — so N concurrent proposals cost one fsync, not
// N. Storages without a Syncer (MemoryStorage) are treated as
// always-durable.
type Syncer interface {
	Sync() error
}

// MemoryStorage is the default Storage: everything in RAM. Within the
// in-process simulation, a node "crash" keeps the MemoryStorage object
// alive to model stable storage.
type MemoryStorage struct {
	mu      sync.Mutex
	term    uint64
	entries []Entry
}

// NewMemoryStorage returns empty storage.
func NewMemoryStorage() *MemoryStorage { return &MemoryStorage{} }

// Term implements Storage.
func (s *MemoryStorage) Term() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.term
}

// SetTerm implements Storage.
func (s *MemoryStorage) SetTerm(term uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.term = term
}

// Base implements Storage: a memory log is never compacted.
func (s *MemoryStorage) Base() (uint64, uint64) { return 0, 0 }

// Entries implements Storage.
func (s *MemoryStorage) Entries() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Entry, len(s.entries))
	copy(out, s.entries)
	return out
}

// Append implements Storage.
func (s *MemoryStorage) Append(entries []Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = append(s.entries, entries...)
}
