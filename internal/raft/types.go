// Package raft is a shard's log, the local write phase of LogStore
// (paper §4.2): proposals enter a bounded sync_queue, the log appends
// everything queued as one run to its storage (the WAL) and makes it
// durable with one Sync — group commit — and committed entries enter a
// bounded apply_queue in front of the state machine. The two queues are
// the paper's backpressure points (BFC): a hot tenant saturating one
// shard sheds load at the client instead of exhausting node memory.
//
// Every shard is one node, so the log runs no consensus: no elections,
// no followers, no messages, and no terms. The package keeps its name
// and the WAL records older data directories hold. A shard's log has
// one durable shape wherever it lies: WAL frames of a checkpoint record
// and entry records, in a segment on disk or in an object shipped to
// OSS (walstorage.go).
package raft

import (
	"fmt"

	"logstore/internal/bitutil"
)

// Entry is one log record.
type Entry struct {
	Index uint64
	Data  []byte
}

// AppendTo serializes the entry for WAL persistence: a zero where older
// logs wrote the entry's term, the index, then the length-prefixed data.
func (e Entry) AppendTo(dst []byte) []byte {
	dst = append(dst, 0)
	dst = bitutil.AppendUvarint(dst, e.Index)
	return bitutil.AppendLenBytes(dst, e.Data)
}

// DecodeEntry reverses AppendTo, returning the entry and the bytes it
// took; the term an older log wrote first is read past. It accepts only
// minimal varints, so re-encoding an entry gives back the bytes it came
// from, with that term as 0. Data is a copy.
func DecodeEntry(data []byte) (Entry, int, error) {
	var e Entry
	_, off, err := minimalUvarint(data)
	if err != nil {
		return e, 0, fmt.Errorf("raft: entry term: %w", err)
	}
	v, n, err := minimalUvarint(data[off:])
	if err != nil {
		return e, 0, fmt.Errorf("raft: entry index: %w", err)
	}
	e.Index = v
	off += n
	l, n, err := minimalUvarint(data[off:])
	if err != nil {
		return e, 0, fmt.Errorf("raft: entry data length: %w", err)
	}
	off += n
	if l > uint64(len(data)-off) {
		return e, 0, fmt.Errorf("raft: entry data: %d bytes, %d left", l, len(data)-off)
	}
	e.Data = append([]byte(nil), data[off:off+int(l)]...)
	return e, off + int(l), nil
}

// minimalUvarint is bitutil.Uvarint refusing an overlong encoding, one
// whose last byte adds nothing: binary.AppendUvarint never writes one.
func minimalUvarint(b []byte) (uint64, int, error) {
	v, n, err := bitutil.Uvarint(b)
	if err == nil && n > 1 && b[n-1] == 0 {
		return 0, 0, fmt.Errorf("overlong uvarint (%d bytes for %d)", n, v)
	}
	return v, n, err
}

// StateMachine consumes committed entries in log order.
type StateMachine interface {
	// Apply is invoked exactly once per committed entry, in index order.
	Apply(index uint64, data []byte)
}

// StateMachineFunc adapts a function to the StateMachine interface.
type StateMachineFunc func(index uint64, data []byte)

// Apply implements StateMachine.
func (f StateMachineFunc) Apply(index uint64, data []byte) { f(index, data) }
