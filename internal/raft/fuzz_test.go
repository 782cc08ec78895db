package raft

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecodeEntry: DecodeEntry, the decoder of every raft WAL record and
// shipped chunk entry, errors on any input it cannot take and never
// panics. An entry it accepts re-encodes, through AppendTo, to the very
// bytes it was read from, and its Data does not alias the input.
func FuzzDecodeEntry(f *testing.F) {
	f.Add(Entry{Term: 3, Index: 17, Data: []byte("proposal")}.AppendTo(nil))
	f.Add(Entry{Term: 1, Index: 1}.AppendTo(nil))
	f.Add([]byte{0x80})                   // a truncated varint
	f.Add([]byte{1, 1, 0xff, 0x0f, 1, 2}) // a data length past the input
	f.Add([]byte{0x81, 0x00, 1, 0})       // an overlong term
	f.Fuzz(func(t *testing.T, data []byte) {
		e, n, err := DecodeEntry(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("DecodeEntry took %d of %d bytes", n, len(data))
		}
		if got := e.AppendTo(nil); !bytes.Equal(got, data[:n]) {
			t.Fatalf("entry %+v re-encodes to %x, read from %x", e, got, data[:n])
		}
		if len(e.Data) > 0 {
			before := bytes.Clone(e.Data)
			for i := range data {
				data[i] ^= 0xff
			}
			if !bytes.Equal(e.Data, before) {
				t.Fatal("Data aliases the input")
			}
		}
	})
}

// FuzzWALStorageReplay replays arbitrary WAL records — the input is a
// sequence of uvarint-length-prefixed record payloads, as
// OpenWALStorage reads them back from the log — and checks what a
// replay that succeeds leaves behind: the live log is a contiguous run
// from base+1 (a slice position agrees with its index), each entry has
// its WAL sequence number, the base is the applied mark, and the
// replayed prefix lies at or below it.
func FuzzWALStorageReplay(f *testing.F) {
	record := func(tag byte, fields ...uint64) []byte {
		out := []byte{tag}
		for _, v := range fields {
			out = binary.AppendUvarint(out, v)
		}
		return out
	}
	frame := func(recs ...[]byte) []byte {
		var out []byte
		for _, r := range recs {
			out = binary.AppendUvarint(out, uint64(len(r)))
			out = append(out, r...)
		}
		return out
	}
	entry := func(term, index uint64) []byte {
		return append([]byte{walTagEntry}, Entry{Term: term, Index: index, Data: []byte("x")}.AppendTo(nil)...)
	}
	f.Add(frame(record(walTagState, 2, 2), entry(1, 1), entry(1, 2), entry(2, 3)))
	f.Add(frame(entry(1, 1), entry(1, 2), entry(1, 4)))                              // a gap below a zero mark
	f.Add(frame(entry(1, 1), entry(1, 2), entry(1, 3), record(walTagApplied, 2, 1))) // a checkpoint
	f.Add(frame(entry(1, 1), entry(1, 2), record(walTagTruncate, 2), entry(2, 2)))   // a conflict replaced
	f.Add(frame(entry(1, 3), record(walTagApplied, 1, 1), entry(1, 2), entry(1, 5))) // a hole at the mark
	f.Add(frame([]byte{walTagEntry, 0x80}, record(walTagState, 1)))                  // a torn entry
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &WALStorage{}
		for seq := uint64(1); len(data) > 0; seq++ {
			n, k := binary.Uvarint(data)
			if k <= 0 || n > uint64(len(data)-k) {
				return
			}
			if err := s.replayRecord(seq, data[k:k+int(n)]); err != nil {
				return // OpenWALStorage fails the same way
			}
			data = data[k+int(n):]
		}
		s.normalizeReplay()
		if s.base != s.applied || len(s.seqs) != len(s.entries) {
			t.Fatalf("base %d, applied mark %d; %d entries with %d sequence numbers", s.base, s.applied, len(s.entries), len(s.seqs))
		}
		for i, e := range s.entries {
			if e.Index != s.base+1+uint64(i) {
				t.Fatalf("live entry %d has index %d over base %d", i, e.Index, s.base)
			}
		}
		for _, e := range s.prefix {
			if e.Index > s.base {
				t.Fatalf("replayed prefix holds index %d above base %d", e.Index, s.base)
			}
		}
		if len(s.entries) > 0 && s.termOfLocked(s.entries[len(s.entries)-1].Index) != s.entries[len(s.entries)-1].Term {
			t.Fatal("termOf disagrees with the last live entry")
		}
	})
}
