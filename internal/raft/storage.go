package raft

// Storage persists a node's log. The node writes through on every
// append and reads it all back at construction, so a node restarted on
// the same Storage resumes where it stopped.
type Storage interface {
	// Log returns, in one consistent read, the log's compaction point
	// — the index of the last entry dropped by compaction (0 when the
	// log is complete from index 1) — and the persisted entries above
	// it, in index order.
	Log() (base uint64, entries []Entry)
	// Append appends entries (contiguous with the existing log).
	Append(entries []Entry)
}

// Syncer is optionally implemented by Storage backends whose writes
// buffer in the OS (WALStorage). The node calls Sync once per
// group-committed run of entries — after appending the whole run,
// before committing it — so N concurrent proposals cost one fsync, not
// N. Storages without a Syncer are treated as always-durable.
type Syncer interface {
	Sync() error
}
