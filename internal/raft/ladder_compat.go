package raft

// This file keeps the names the benchmark ladder's raft rungs
// (benchmark/ladder.go, raftRung) still build a three-"replica" group
// with. Each replica is its own one-node log, so those rungs time what a
// shard runs. Everything here goes when ROADMAP item 1 replaces the
// rung; nothing else may use it.

// NodeID names a ladder replica; the log ignores it (Config.ID, Peers).
type NodeID int

// Transport is what Config.Transport accepts; the log sends nothing.
type Transport any

// LocalNetwork is the ladder's network: it carries no message.
type LocalNetwork struct{}

// NewLocalNetwork returns a network; the seed is ignored.
func NewLocalNetwork(seed int64) *LocalNetwork { return &LocalNetwork{} }

// Transport returns nil: there is nothing to send.
func (*LocalNetwork) Transport(id NodeID) Transport { return nil }

// Register does nothing.
func (*LocalNetwork) Register(n *Node) {}

// IsLeader reports true until Stop: every log accepts proposals.
func (n *Node) IsLeader() bool {
	select {
	case <-n.stopc:
		return false
	default:
		return true
	}
}
