package worker

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"

	"logstore/internal/bitutil"
	"logstore/internal/rowstore"
	"logstore/internal/schema"
)

// Proposal wire format (the payload of one raft entry): a *group* of
// client batches committed together.
//
//	group := uvarint(nsubs) { uvarint(len(sub)) sub }*
//	sub   := 8-byte big-endian batch id ++ batch
//	batch := uvarint(nrows) row*
//
// Every proposal is a group — a single-batch append is a group of one —
// so the state machine has a single decode path. Each sub keeps its own
// content-derived batch id: which raft entry a batch rides in never
// changes its dedup identity, so a batch retried after an ambiguous
// outcome (the worker crashed between commit and ack) is suppressed
// whether it recommits grouped with different neighbors or alone.

// maxGroupSubs bounds group framing against corrupt input; a real group
// is one client batch's tenants on one shard.
const maxGroupSubs = 1 << 20

// BatchID derives the content-addressed identity of an encoded batch:
// the FNV-64a hash of its EncodeBatch bytes. Identical content maps to
// an identical id, which is what lets a shard suppress a batch retried
// after an ambiguous outcome.
func BatchID(encoded []byte) uint64 {
	h := fnv.New64a()
	h.Write(encoded)
	return h.Sum64()
}

// EncodeBatch serializes a row batch for raft replication (the batch
// format rowstore.Store.AppendBatch applies), pre-sized to a single
// allocation.
func EncodeBatch(rows []schema.Row) []byte {
	return rowstore.EncodeBatch(make([]byte, 0, rowstore.BatchSize(rows)), rows)
}

// AppendSubProposal appends one sub-proposal (batch id ++ batch) to
// dst, growing it at most once. The id is computed over the batch bytes
// just written, so the hole is backfilled after encoding.
func AppendSubProposal(dst []byte, rows []schema.Row) []byte {
	return appendSub(dst, rows, rowstore.BatchSize(rows))
}

// appendSub is AppendSubProposal with the batch's encoded size (its
// rowstore.BatchSize) already known.
func appendSub(dst []byte, rows []schema.Row, size int) []byte {
	dst = slices.Grow(dst, 8+size)
	off := len(dst)
	var idHole [8]byte
	dst = append(dst, idHole[:]...)
	dst = rowstore.EncodeBatch(dst, rows)
	binary.BigEndian.PutUint64(dst[off:off+8], BatchID(dst[off+8:]))
	return dst
}

// encodeUnit frames one sub-proposal per batch straight into a group
// proposal — the bytes EncodeGroupProposal gives for the same subs — in
// one buffer of exactly that size. Raft retains the buffer, so it is
// never pooled; the rows are copied once, here.
func encodeUnit(batches [][]schema.Row) []byte {
	var stack [32]int // batch sizes; a unit is rarely more tenants than this
	sizes := stack[:0]
	n := bitutil.UvarintLen(uint64(len(batches)))
	for _, rows := range batches {
		size := rowstore.BatchSize(rows)
		sizes = append(sizes, size)
		n += bitutil.UvarintLen(uint64(8+size)) + 8 + size
	}
	out := make([]byte, 0, n)
	out = bitutil.AppendUvarint(out, uint64(len(batches)))
	for i, rows := range batches {
		out = bitutil.AppendUvarint(out, uint64(8+sizes[i]))
		out = appendSub(out, rows, sizes[i])
	}
	return out
}

// EncodeGroupProposal frames encoded subs into one raft proposal. The
// returned buffer is handed to raft, which retains it — it must never
// come from a pool (the subs may: they are copied here).
func EncodeGroupProposal(subs [][]byte) []byte {
	n := bitutil.UvarintLen(uint64(len(subs)))
	for _, s := range subs {
		n += bitutil.UvarintLen(uint64(len(s))) + len(s)
	}
	out := make([]byte, 0, n)
	out = bitutil.AppendUvarint(out, uint64(len(subs)))
	for _, s := range subs {
		out = bitutil.AppendLenBytes(out, s)
	}
	return out
}

// ForEachSub iterates a group proposal without copying: fn sees each
// sub's batch id and its encoded batch (aliasing data). Iteration stops
// on the first error from fn or from the framing.
func ForEachSub(data []byte, fn func(bid uint64, batch []byte) error) error {
	n, off, err := bitutil.Uvarint(data)
	if err != nil {
		return fmt.Errorf("worker: group size: %w", err)
	}
	if n > maxGroupSubs {
		return fmt.Errorf("worker: implausible group size %d", n)
	}
	for i := uint64(0); i < n; i++ {
		sub, c, err := bitutil.LenBytes(data[off:])
		if err != nil {
			return fmt.Errorf("worker: group sub %d: %w", i, err)
		}
		if len(sub) < 8 {
			return fmt.Errorf("worker: group sub %d too short (%d bytes)", i, len(sub))
		}
		off += c
		if err := fn(binary.BigEndian.Uint64(sub), sub[8:]); err != nil {
			return err
		}
	}
	return nil
}
