// Package raft is a shard's log, the local write phase of LogStore
// (paper §4.2): proposals enter a bounded sync_queue, the log appends
// everything queued as one run to its storage (the WAL) and makes it
// durable with one Sync — group commit — and committed entries enter a
// bounded apply_queue in front of the state machine. The two queues are
// the paper's backpressure points (BFC): a hot tenant saturating one
// shard sheds load at the client instead of exhausting node memory.
//
// Every shard is one node, so the log runs no consensus: no elections,
// no followers, no messages. The package keeps its name, its WAL record
// format and its entry encoding, which shipped chunks and existing data
// directories use.
package raft

import (
	"fmt"

	"logstore/internal/bitutil"
)

// Entry is one log record.
type Entry struct {
	Term  uint64
	Index uint64
	Data  []byte
}

// AppendTo serializes the entry for WAL persistence.
func (e Entry) AppendTo(dst []byte) []byte {
	dst = bitutil.AppendUvarint(dst, e.Term)
	dst = bitutil.AppendUvarint(dst, e.Index)
	return bitutil.AppendLenBytes(dst, e.Data)
}

// DecodeEntry reverses AppendTo, returning the entry and the bytes it
// took. It accepts exactly what AppendTo writes: a varint in more bytes
// than it needs is an error, so re-encoding an entry gives back the
// bytes it came from. Data is a copy.
func DecodeEntry(data []byte) (Entry, int, error) {
	var e Entry
	var off int
	v, n, err := minimalUvarint(data)
	if err != nil {
		return e, 0, fmt.Errorf("raft: entry term: %w", err)
	}
	e.Term = v
	off += n
	v, n, err = minimalUvarint(data[off:])
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
