// Package raft implements the replication protocol of LogStore's local
// write phase (paper §2: "synchronize WAL between three replicas using
// Raft", §4.2: "we integrate BFC into the Raft protocol"). It is a
// self-contained Raft (Ongaro & Ousterhout) with leader election, log
// replication with follower repair, and commit safety, extended with
// the paper's two backpressure points: a bounded sync_queue in front of
// log replication and a bounded apply_queue in front of the state
// machine, so that a hot tenant saturating one Raft group sheds load at
// the client instead of exhausting node memory.
package raft

import (
	"fmt"

	"logstore/internal/bitutil"
)

// NodeID identifies a raft peer within one group.
type NodeID int

// None is the null node id (no leader / no vote).
const None NodeID = -1

// StateType is the node's role.
type StateType uint8

// Raft roles.
const (
	StateFollower StateType = iota
	StateCandidate
	StateLeader
)

// String returns the role name.
func (s StateType) String() string {
	switch s {
	case StateFollower:
		return "follower"
	case StateCandidate:
		return "candidate"
	case StateLeader:
		return "leader"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Entry is one replicated log record.
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

// MessageType enumerates raft RPCs (as one-way messages).
type MessageType uint8

// Message kinds.
const (
	MsgVoteRequest MessageType = iota
	MsgVoteResponse
	MsgAppendRequest
	MsgAppendResponse
)

// String returns the message kind name.
func (t MessageType) String() string {
	switch t {
	case MsgVoteRequest:
		return "VoteRequest"
	case MsgVoteResponse:
		return "VoteResponse"
	case MsgAppendRequest:
		return "AppendRequest"
	case MsgAppendResponse:
		return "AppendResponse"
	default:
		return fmt.Sprintf("msg(%d)", uint8(t))
	}
}

// Message is a raft RPC. Fields are a union across message types.
type Message struct {
	Type MessageType
	From NodeID
	To   NodeID
	Term uint64

	// Vote request/response.
	LastLogIndex uint64
	LastLogTerm  uint64
	VoteGranted  bool

	// Append request.
	PrevLogIndex uint64
	PrevLogTerm  uint64
	Entries      []Entry
	LeaderCommit uint64
	// Snapshot marks an append anchored at the leader's compaction
	// point: a follower that cannot log-match at PrevLogIndex must
	// adopt (PrevLogIndex, PrevLogTerm) as its new base instead of
	// rejecting — the entries behind it were archived and are no longer
	// replayable (snapshot-by-reference; the data lives in OSS).
	Snapshot bool

	// Append response.
	Success    bool
	MatchIndex uint64
	// RejectHint accelerates follower repair: the follower's last index.
	RejectHint uint64
}

// Transport delivers messages between peers of a group. Send must not
// block indefinitely; lossy delivery is allowed (raft tolerates it).
type Transport interface {
	Send(msg Message)
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
