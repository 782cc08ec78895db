// Package bitutil provides bit-level primitives shared by the LogBlock
// format and the query engine: fixed-size bitsets used as row-id sets and
// null masks, and variable-length integer encoding used throughout the
// on-disk format.
package bitutil

import (
	"fmt"
	"math/bits"
)

// Bitset is a fixed-capacity set of row ids backed by a []uint64.
// The zero value is an empty bitset of capacity 0; use NewBitset to
// allocate capacity up front.
type Bitset struct {
	words []uint64
	n     int // capacity in bits
}

// NewBitset returns a bitset able to hold bits [0, n).
func NewBitset(n int) *Bitset {
	if n < 0 {
		n = 0
	}
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// Reset makes b an empty bitset able to hold bits [0, n), reusing its
// words when they are enough.
func (b *Bitset) Reset(n int) {
	if n < 0 {
		n = 0
	}
	nw := (n + 63) / 64
	if cap(b.words) < nw {
		b.words = make([]uint64, nw)
	} else {
		b.words = b.words[:nw]
		clear(b.words)
	}
	b.n = n
}

// Len returns the capacity in bits.
func (b *Bitset) Len() int { return b.n }

// Set sets bit i. Bits outside [0, Len) are ignored.
func (b *Bitset) Set(i int) {
	if i < 0 || i >= b.n {
		return
	}
	b.words[i>>6] |= 1 << uint(i&63)
}

// Clear clears bit i.
func (b *Bitset) Clear(i int) {
	if i < 0 || i >= b.n {
		return
	}
	b.words[i>>6] &^= 1 << uint(i&63)
}

// Test reports whether bit i is set.
func (b *Bitset) Test(i int) bool {
	if i < 0 || i >= b.n {
		return false
	}
	return b.words[i>>6]&(1<<uint(i&63)) != 0
}

// SetAll sets every bit in [0, Len).
func (b *Bitset) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trimTail()
}

// ClearAll clears every bit.
func (b *Bitset) ClearAll() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// trimTail zeroes bits at positions >= n in the last word so that
// Count and iteration never observe phantom bits.
func (b *Bitset) trimTail() {
	if rem := b.n & 63; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// And intersects b with other in place. Panics if lengths differ.
func (b *Bitset) And(other *Bitset) {
	if b.n != other.n {
		panic(fmt.Sprintf("bitutil: And on bitsets of different length %d != %d", b.n, other.n))
	}
	for i := range b.words {
		b.words[i] &= other.words[i]
	}
}

// Or unions b with other in place. Panics if lengths differ.
func (b *Bitset) Or(other *Bitset) {
	if b.n != other.n {
		panic(fmt.Sprintf("bitutil: Or on bitsets of different length %d != %d", b.n, other.n))
	}
	for i := range b.words {
		b.words[i] |= other.words[i]
	}
}

// AndNot removes every bit of other from b in place.
func (b *Bitset) AndNot(other *Bitset) {
	if b.n != other.n {
		panic(fmt.Sprintf("bitutil: AndNot on bitsets of different length %d != %d", b.n, other.n))
	}
	for i := range b.words {
		b.words[i] &^= other.words[i]
	}
}

// rangeMasks returns the word index range [wlo, whi] covering bit range
// [start, end) together with the partial-word masks of the first and
// last word. Callers must have clamped start < end into [0, n).
func rangeMasks(start, end int) (wlo, whi int, first, last uint64) {
	wlo, whi = start>>6, (end-1)>>6
	first = ^uint64(0) << uint(start&63)
	last = ^uint64(0) >> uint(63-(end-1)&63)
	return
}

// clampRange narrows [start, end) to [0, n); ok is false when empty.
func (b *Bitset) clampRange(start, end int) (int, int, bool) {
	if start < 0 {
		start = 0
	}
	if end > b.n {
		end = b.n
	}
	return start, end, start < end
}

// AnyInRange reports whether any bit in [start, end) is set, examining
// whole words rather than probing bit by bit.
func (b *Bitset) AnyInRange(start, end int) bool {
	start, end, ok := b.clampRange(start, end)
	if !ok {
		return false
	}
	wlo, whi, first, last := rangeMasks(start, end)
	if wlo == whi {
		return b.words[wlo]&first&last != 0
	}
	if b.words[wlo]&first != 0 || b.words[whi]&last != 0 {
		return true
	}
	for wi := wlo + 1; wi < whi; wi++ {
		if b.words[wi] != 0 {
			return true
		}
	}
	return false
}

// CountInRange returns the number of set bits in [start, end).
func (b *Bitset) CountInRange(start, end int) int {
	start, end, ok := b.clampRange(start, end)
	if !ok {
		return 0
	}
	wlo, whi, first, last := rangeMasks(start, end)
	if wlo == whi {
		return bits.OnesCount64(b.words[wlo] & first & last)
	}
	c := bits.OnesCount64(b.words[wlo]&first) + bits.OnesCount64(b.words[whi]&last)
	for wi := wlo + 1; wi < whi; wi++ {
		c += bits.OnesCount64(b.words[wi])
	}
	return c
}

// ClearRange clears every bit in [start, end).
func (b *Bitset) ClearRange(start, end int) {
	start, end, ok := b.clampRange(start, end)
	if !ok {
		return
	}
	wlo, whi, first, last := rangeMasks(start, end)
	if wlo == whi {
		b.words[wlo] &^= first & last
		return
	}
	b.words[wlo] &^= first
	b.words[whi] &^= last
	for wi := wlo + 1; wi < whi; wi++ {
		b.words[wi] = 0
	}
}

// SetRange sets every bit in [start, end), a word at a time.
func (b *Bitset) SetRange(start, end int) {
	start, end, ok := b.clampRange(start, end)
	if !ok {
		return
	}
	wlo, whi, first, last := rangeMasks(start, end)
	if wlo == whi {
		b.words[wlo] |= first & last
		return
	}
	b.words[wlo] |= first
	b.words[whi] |= last
	for wi := wlo + 1; wi < whi; wi++ {
		b.words[wi] = ^uint64(0)
	}
}

// KeepFirst clears every set bit after the n lowest ones.
func (b *Bitset) KeepFirst(n int) {
	for wi, w := range b.words {
		c := bits.OnesCount64(w)
		if c <= n {
			n -= c
			continue
		}
		for ; c > n; c-- {
			w &^= 1 << uint(63-bits.LeadingZeros64(w))
		}
		b.words[wi] = w
		clear(b.words[wi+1:])
		return
	}
}

// NextSet returns the index of the first set bit at or after i, or -1
// when no further bit is set.
func (b *Bitset) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= b.n {
		return -1
	}
	wi := i >> 6
	w := b.words[wi] >> uint(i&63)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(b.words); wi++ {
		if b.words[wi] != 0 {
			return wi<<6 + bits.TrailingZeros64(b.words[wi])
		}
	}
	return -1
}

// FilterRange clears every set bit i in [start, end) for which keep(i)
// returns false. The scan engine's predicate kernels use it to narrow
// an accumulator word by word: each word is snapshotted, its set bits
// evaluated, and the cleared mask written back in one store.
func (b *Bitset) FilterRange(start, end int, keep func(i int) bool) {
	start, end, ok := b.clampRange(start, end)
	if !ok {
		return
	}
	wlo, whi, first, last := rangeMasks(start, end)
	for wi := wlo; wi <= whi; wi++ {
		mask := ^uint64(0)
		if wi == wlo {
			mask &= first
		}
		if wi == whi {
			mask &= last
		}
		w := b.words[wi] & mask
		if w == 0 {
			continue
		}
		drop := uint64(0)
		base := wi << 6
		for rem := w; rem != 0; rem &= rem - 1 {
			tz := bits.TrailingZeros64(rem)
			if !keep(base + tz) {
				drop |= 1 << uint(tz)
			}
		}
		b.words[wi] &^= drop
	}
}

// Any reports whether at least one bit is set.
func (b *Bitset) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Clone returns a deep copy.
func (b *Bitset) Clone() *Bitset {
	c := &Bitset{words: make([]uint64, len(b.words)), n: b.n}
	copy(c.words, b.words)
	return c
}

// ForEach calls fn for every set bit in ascending order. If fn returns
// false iteration stops early.
func (b *Bitset) ForEach(fn func(i int) bool) {
	for wi, w := range b.words {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			if !fn(wi*64 + tz) {
				return
			}
			w &= w - 1
		}
	}
}

// Slice returns the indexes of all set bits in ascending order.
func (b *Bitset) Slice() []int {
	out := make([]int, 0, b.Count())
	b.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// Bytes serializes the bitset: 8-byte little-endian length in bits
// followed by the packed words.
func (b *Bitset) Bytes() []byte {
	out := make([]byte, 8+len(b.words)*8)
	PutUint64(out[0:8], uint64(b.n))
	for i, w := range b.words {
		PutUint64(out[8+i*8:], w)
	}
	return out
}

// BitsetFromBytes deserializes a bitset produced by Bytes.
func BitsetFromBytes(data []byte) (*Bitset, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("bitutil: bitset truncated: %d bytes", len(data))
	}
	// Bound the bit count by the bytes present before any arithmetic on
	// it: a 64-bit length can wrap int and overflow (n+63)/64 below.
	n64 := Uint64(data[0:8])
	if n64 > uint64(len(data)-8)*8 {
		return nil, fmt.Errorf("bitutil: bitset length %d exceeds %d payload bytes", n64, len(data)-8)
	}
	n := int(n64)
	want := (n + 63) / 64 * 8
	if len(data) < 8+want {
		return nil, fmt.Errorf("bitutil: bitset body truncated: want %d bytes, have %d", want, len(data)-8)
	}
	b := NewBitset(n)
	for i := range b.words {
		b.words[i] = Uint64(data[8+i*8:])
	}
	b.trimTail()
	return b, nil
}
