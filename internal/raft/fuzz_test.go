package raft

import (
	"bytes"
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
