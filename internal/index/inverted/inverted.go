// Package inverted implements the full-text inverted index LogStore
// builds for every string column inside a LogBlock (paper §3.2: "we
// support two types of indexes: the inverted index and BKD tree index,
// corresponding to string type and numerical type respectively").
//
// Each row value is indexed twice: once as the raw value (a keyword
// term, serving equality predicates like ip = '192.168.0.1') and once
// tokenized (serving full-text MATCH queries over message columns). The
// serialized form is a sorted term dictionary with delta-varint posting
// lists, designed for binary-searchable lookups directly on the encoded
// bytes so a cached index segment never needs full deserialization.
package inverted

import (
	"fmt"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"

	"logstore/internal/bitutil"
)

// Tokenize splits text into lowercase alphanumeric terms. It is the
// analyzer applied to every indexed string value.
func Tokenize(text string) []string {
	fields := strings.FieldsFunc(text, func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
	out := fields[:0]
	for _, f := range fields {
		out = append(out, strings.ToLower(f))
	}
	return out
}

// Builder accumulates term → row-id postings while a LogBlock column is
// being built. Postings are kept as one (term ordinal, row id) list in
// Add order and grouped by term only when the index is serialized, so
// adding a row allocates nothing unless it brings a term not seen
// before. A Builder is reusable: Reset empties it and keeps its memory.
type Builder struct {
	ids    map[string]uint32 // term → ordinal, by first sight
	terms  []string          // ordinal → term
	counts []uint32          // ordinal → number of postings
	last   []uint32          // ordinal → row id of the newest posting
	pairs  []uint64          // ordinal<<32 | row id, in Add order

	// lower holds the value being analyzed, lower-cased; the terms of
	// one Add call are sub-slices of it.
	lower []byte

	// AppendTo scratch: term ordinals in dictionary order, each term's
	// end in flat, and the row ids grouped by term.
	order []uint32
	ends  []uint32
	flat  []uint32
}

// NewBuilder returns an empty index builder.
func NewBuilder() *Builder {
	return &Builder{ids: make(map[string]uint32)}
}

// maxReusedTerms bounds the dictionary a Reset keeps: clearing a map
// costs its capacity, not its size, so after one large column a reused
// map would charge every small one that follows.
const maxReusedTerms = 1024

// Reset empties the builder for another column, keeping its buffers.
func (b *Builder) Reset() {
	if len(b.ids) > maxReusedTerms {
		b.ids = make(map[string]uint32)
	} else {
		clear(b.ids)
	}
	b.terms = b.terms[:0]
	b.counts = b.counts[:0]
	b.last = b.last[:0]
	b.pairs = b.pairs[:0]
}

// Add indexes one row's value: the raw value as a keyword term plus its
// analyzed tokens — exactly ToLower(value) and Tokenize(value), which
// is what the query side looks up. Rows must be added in ascending
// row-id order.
func (b *Builder) Add(rowID uint32, value string) {
	low := b.lower[:0]
	for i := 0; i < len(value); i++ {
		c := value[i]
		if c >= utf8.RuneSelf {
			b.lower = low
			b.addUnicode(rowID, value)
			return
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		low = append(low, c)
	}
	b.lower = low
	// ASCII: lower-casing is bytewise and keeps every separator a
	// separator, so the tokens are the letter/digit runs of low.
	b.addTerm(low, rowID)
	for i := 0; i < len(low); {
		if !asciiAlnum(low[i]) {
			i++
			continue
		}
		j := i + 1
		for j < len(low) && asciiAlnum(low[j]) {
			j++
		}
		b.addTerm(low[i:j], rowID)
		i = j
	}
}

// AddValue is Add for a value the caller will see again: it indexes
// the row and appends to ords the ordinals of the terms it posted —
// the value's distinct terms, in first-seen order. Another row holding
// the same value is then indexed by AddOrdinals with that span, without
// analyzing or hashing the value again.
func (b *Builder) AddValue(rowID uint32, value string, ords []uint32) []uint32 {
	start := len(b.pairs)
	b.Add(rowID, value)
	for _, p := range b.pairs[start:] {
		ords = append(ords, uint32(p>>32))
	}
	return ords
}

// AddOrdinals indexes a row whose value an earlier AddValue call
// analyzed into ords: it posts the row under each of those terms. Rows
// must still come in ascending row-id order.
func (b *Builder) AddOrdinals(rowID uint32, ords []uint32) {
	for _, id := range ords {
		b.counts[id]++
		b.last[id] = rowID
		b.pairs = append(b.pairs, uint64(id)<<32|uint64(rowID))
	}
}

func asciiAlnum(c byte) bool {
	return 'a' <= c && c <= 'z' || '0' <= c && c <= '9'
}

// addUnicode is Add for values with non-ASCII bytes, where case mapping
// and letter classes need the unicode tables (and invalid UTF-8 needs
// strings.ToLower's replacement rule): it defers to the analyzer
// functions themselves.
func (b *Builder) addUnicode(rowID uint32, value string) {
	b.lower = append(b.lower[:0], strings.ToLower(value)...)
	b.addTerm(b.lower, rowID)
	for _, tok := range Tokenize(value) {
		b.lower = append(b.lower[:0], tok...)
		b.addTerm(b.lower, rowID)
	}
}

func (b *Builder) addTerm(term []byte, rowID uint32) {
	if len(term) == 0 {
		return
	}
	id, ok := b.ids[string(term)] // no allocation: map lookup by converted key
	if !ok {
		id = uint32(len(b.terms))
		t := string(term)
		b.ids[t] = id
		b.terms = append(b.terms, t)
		b.counts = append(b.counts, 0)
		b.last = append(b.last, 0)
	}
	if b.counts[id] > 0 && b.last[id] == rowID {
		return // duplicate within the same row
	}
	b.counts[id]++
	b.last[id] = rowID
	b.pairs = append(b.pairs, uint64(id)<<32|uint64(rowID))
}

// Terms returns the number of distinct terms accumulated.
func (b *Builder) Terms() int { return len(b.terms) }

// Build serializes the index into a fresh buffer.
func (b *Builder) Build() []byte { return b.AppendTo(nil) }

// AppendTo serializes the index, appending it to dst:
//
//	u32 termCount
//	u32 × termCount entry offsets (into the entries region)
//	entries: len-prefixed term, uvarint postingCount, delta-uvarint ids
func (b *Builder) AppendTo(dst []byte) []byte {
	n := len(b.terms)
	b.order = b.order[:0]
	for id := range b.terms {
		b.order = append(b.order, uint32(id))
	}
	slices.SortFunc(b.order, func(x, y uint32) int {
		return strings.Compare(b.terms[x], b.terms[y])
	})

	// Group the row ids by term: each term's run ends at ends[id], and
	// filling the runs in Add order leaves each one ascending.
	b.ends = append(b.ends[:0], b.counts...)
	sum := uint32(0)
	for id, c := range b.ends {
		b.ends[id] = sum
		sum += c
	}
	b.flat = slices.Grow(b.flat[:0], len(b.pairs))[:len(b.pairs)]
	for _, p := range b.pairs {
		id := p >> 32
		b.flat[b.ends[id]] = uint32(p)
		b.ends[id]++
	}

	base := len(dst)
	dst = slices.Grow(dst, 4+4*n)[:base+4+4*n]
	bitutil.PutUint32(dst[base:], uint32(n))
	entries := len(dst)
	for i, id := range b.order {
		bitutil.PutUint32(dst[base+4+4*i:], uint32(len(dst)-entries))
		dst = bitutil.AppendLenString(dst, b.terms[id])
		ids := b.flat[b.ends[id]-b.counts[id] : b.ends[id]]
		dst = bitutil.AppendUvarint(dst, uint64(len(ids)))
		prev := uint32(0)
		for _, rowID := range ids {
			dst = bitutil.AppendUvarint(dst, uint64(rowID-prev))
			prev = rowID
		}
	}
	return dst
}

// Index provides lookups over a serialized inverted index without
// deserializing the dictionary.
type Index struct {
	raw     []byte
	n       int
	entries []byte
}

// Open validates the framing of a serialized index and returns a reader.
func Open(raw []byte) (*Index, error) {
	if len(raw) < 4 {
		return nil, fmt.Errorf("inverted: index truncated: %d bytes", len(raw))
	}
	n := int(bitutil.Uint32(raw[0:4]))
	hdr := 4 + 4*n
	if n < 0 || len(raw) < hdr {
		return nil, fmt.Errorf("inverted: offset table truncated: %d terms, %d bytes", n, len(raw))
	}
	return &Index{raw: raw, n: n, entries: raw[hdr:]}, nil
}

// TermCount returns the number of distinct terms.
func (ix *Index) TermCount() int { return ix.n }

// entryAt decodes the term at dictionary position i, returning the term
// and the byte offset of its posting list within the entries region.
func (ix *Index) entryAt(i int) (string, int, error) {
	off := int(bitutil.Uint32(ix.raw[4+4*i:]))
	if off > len(ix.entries) {
		return "", 0, fmt.Errorf("inverted: entry %d offset %d out of range", i, off)
	}
	term, n, err := bitutil.LenString(ix.entries[off:])
	if err != nil {
		return "", 0, fmt.Errorf("inverted: entry %d term: %w", i, err)
	}
	return term, off + n, nil
}

// Lookup returns the sorted row ids whose value contains term (or whose
// raw value equals it). A missing term yields an empty, non-nil slice.
func (ix *Index) Lookup(term string) ([]uint32, error) {
	term = strings.ToLower(term)
	lo, hi := 0, ix.n-1
	for lo <= hi {
		mid := (lo + hi) / 2
		t, postOff, err := ix.entryAt(mid)
		if err != nil {
			return nil, err
		}
		switch {
		case t == term:
			return ix.decodePostings(postOff)
		case t < term:
			lo = mid + 1
		default:
			hi = mid - 1
		}
	}
	return []uint32{}, nil
}

func (ix *Index) decodePostings(off int) ([]uint32, error) {
	count, n, err := bitutil.Uvarint(ix.entries[off:])
	if err != nil {
		return nil, fmt.Errorf("inverted: posting count: %w", err)
	}
	off += n
	if count > uint64(len(ix.entries)) {
		return nil, fmt.Errorf("inverted: implausible posting count %d", count)
	}
	ids := make([]uint32, 0, count)
	cur := uint32(0)
	for i := uint64(0); i < count; i++ {
		d, n, err := bitutil.Uvarint(ix.entries[off:])
		if err != nil {
			return nil, fmt.Errorf("inverted: posting %d: %w", i, err)
		}
		off += n
		if i == 0 {
			cur = uint32(d)
		} else {
			cur += uint32(d)
		}
		ids = append(ids, cur)
	}
	return ids, nil
}

// LookupPrefix returns the sorted, de-duplicated row ids of every term
// with the given prefix (the dictionary is sorted, so this is one
// binary search plus a contiguous scan).
func (ix *Index) LookupPrefix(prefix string, rowCount int) (*bitutil.Bitset, error) {
	prefix = strings.ToLower(prefix)
	bs := bitutil.NewBitset(rowCount)
	if prefix == "" {
		return bs, nil
	}
	// Binary search for the first term >= prefix.
	lo, hi := 0, ix.n
	for lo < hi {
		mid := (lo + hi) / 2
		t, _, err := ix.entryAt(mid)
		if err != nil {
			return nil, err
		}
		if t < prefix {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for i := lo; i < ix.n; i++ {
		t, postOff, err := ix.entryAt(i)
		if err != nil {
			return nil, err
		}
		if !strings.HasPrefix(t, prefix) {
			break
		}
		ids, err := ix.decodePostings(postOff)
		if err != nil {
			return nil, err
		}
		for _, id := range ids {
			bs.Set(int(id))
		}
	}
	return bs, nil
}

// LookupBitset returns the matching rows as a bitset sized to rowCount.
func (ix *Index) LookupBitset(term string, rowCount int) (*bitutil.Bitset, error) {
	ids, err := ix.Lookup(term)
	if err != nil {
		return nil, err
	}
	bs := bitutil.NewBitset(rowCount)
	for _, id := range ids {
		bs.Set(int(id))
	}
	return bs, nil
}

// LookupAll intersects the postings of every term (AND semantics), the
// primitive behind multi-token MATCH queries.
func (ix *Index) LookupAll(terms []string, rowCount int) (*bitutil.Bitset, error) {
	if len(terms) == 0 {
		bs := bitutil.NewBitset(rowCount)
		bs.SetAll()
		return bs, nil
	}
	acc, err := ix.LookupBitset(terms[0], rowCount)
	if err != nil {
		return nil, err
	}
	for _, t := range terms[1:] {
		if !acc.Any() {
			return acc, nil
		}
		next, err := ix.LookupBitset(t, rowCount)
		if err != nil {
			return nil, err
		}
		acc.And(next)
	}
	return acc, nil
}
