// Package inverted implements the full-text inverted index LogStore
// builds for every string column inside a LogBlock (paper §3.2: "we
// support two types of indexes: the inverted index and BKD tree index,
// corresponding to string type and numerical type respectively").
//
// Each row value is indexed once, as its tokens (Tokenize). A MATCH
// query looks its terms and prefixes up directly. A string equality
// such as ip = '192.168.0.1' looks up its literal's tokens and takes
// the rows of the rarest (LookupRarest): every row holding the value
// holds all of its tokens, so that is a candidate set, and the planner
// checks each candidate against the stored value. Objects written
// before this also hold each whole lower-cased value as a term; the
// same lookups answer them, since they hold the tokens too. The
// serialized form is a front-coded term dictionary in byte order whose
// posting lists are delta varints or row bitsets, designed for lookups
// directly on the encoded bytes — a binary search over restart points,
// then a short scan — so a cached index segment never needs full
// deserialization.
package inverted

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"

	"logstore/internal/bitutil"
)

// Tokenize splits text into lowercase alphanumeric terms. It is the
// analyzer applied to every indexed string value and to every literal
// the index is probed with.
func Tokenize(text string) []string { return AppendTokens(nil, text) }

// AppendTokens appends Tokenize(text) to dst. ASCII text is lower-cased
// in one copy (none when it has no upper case), its terms are
// substrings of that, and dst grows at most once.
func AppendTokens(dst []string, text string) []string {
	for i := 0; i < len(text); i++ {
		if text[i] >= utf8.RuneSelf {
			return append(dst, tokenizeUnicode(text)...)
		}
	}
	// ASCII: lower-casing is bytewise and keeps every separator a
	// separator, so the terms are the letter/digit runs of lower.
	lower := strings.ToLower(text)
	n := 0
	for i, j := asciiRun(lower, 0); i < j; i, j = asciiRun(lower, j) {
		n++
	}
	dst = slices.Grow(dst, n)
	for i, j := asciiRun(lower, 0); i < j; i, j = asciiRun(lower, j) {
		dst = append(dst, lower[i:j])
	}
	return dst
}

// tokenizeUnicode is Tokenize for text with non-ASCII bytes, where case
// mapping and letter classes need the unicode tables (and invalid UTF-8
// needs strings.ToLower's replacement rule).
func tokenizeUnicode(text string) []string {
	fields := strings.FieldsFunc(text, func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
	for i, f := range fields {
		fields[i] = strings.ToLower(f)
	}
	return fields
}

// asciiRun returns the bounds of the first run of lower-case ASCII
// letters and digits in s at or after from; i == j when there is none.
func asciiRun[S string | []byte](s S, from int) (i, j int) {
	i = from
	for i < len(s) && !asciiAlnum(s[i]) {
		i++
	}
	j = i
	for j < len(s) && asciiAlnum(s[j]) {
		j++
	}
	return i, j
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

// Add indexes one row's value under its tokens — exactly
// Tokenize(value), which is what the query side looks up. A value with
// no tokens is not indexed. Rows must be added in ascending row-id
// order.
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
	for i, j := asciiRun(low, 0); i < j; i, j = asciiRun(low, j) {
		b.addTerm(low[i:j], rowID)
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

// addUnicode is Add for values with non-ASCII bytes: it defers to the
// analyzer itself.
func (b *Builder) addUnicode(rowID uint32, value string) {
	for _, tok := range tokenizeUnicode(value) {
		b.lower = append(b.lower[:0], tok...)
		b.addTerm(b.lower, rowID)
	}
}

func (b *Builder) addTerm(term []byte, rowID uint32) {
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

// restartInterval is how many dictionary entries share one restart
// point: every restartInterval-th term is stored whole, the rest as a
// suffix of the term before.
const restartInterval = 16

// Posting list kinds, the low bit of an entry's posting header.
const (
	postDeltas = 0 // delta-uvarint row ids, the first one absolute
	postBitset = 1 // packed row bitset: bit i of byte j is row 8j+i
)

// minEntryBytes is the least an entry of the front-coded dictionary
// can occupy: the shared-prefix and suffix lengths, one suffix byte
// (terms are distinct and sorted, so no suffix is empty), the posting
// header and one byte of postings.
const minEntryBytes = 5

// AppendTo serializes the index, appending it to dst. The dictionary
// is front-coded in byte order, with a restart point every
// restartInterval terms:
//
//	uvarint termCount
//	u32 × ceil(termCount/restartInterval) restart offsets (into entries)
//	entries: uvarint shared, uvarint suffixLen, suffix,
//	         uvarint postLen<<1 | kind, postLen bytes of postings
//
// shared is the length of the prefix the term shares with the one
// before it, zero at a restart point. Each posting list is stored as
// delta uvarints or as a row bitset, whichever is smaller.
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

	dst = bitutil.AppendUvarint(dst, uint64(n))
	table := len(dst)
	restarts := (n + restartInterval - 1) / restartInterval
	dst = slices.Grow(dst, 4*restarts)[:table+4*restarts]
	entries := len(dst)
	prev := ""
	for i, id := range b.order {
		term := b.terms[id]
		shared := 0
		if i%restartInterval == 0 {
			bitutil.PutUint32(dst[table+4*(i/restartInterval):], uint32(len(dst)-entries))
		} else {
			for shared < len(prev) && shared < len(term) && prev[shared] == term[shared] {
				shared++
			}
		}
		dst = bitutil.AppendUvarint(dst, uint64(shared))
		dst = bitutil.AppendLenString(dst, term[shared:])
		dst = appendPostings(dst, b.flat[b.ends[id]-b.counts[id]:b.ends[id]])
		prev = term
	}
	return dst
}

// appendPostings appends one term's posting header and list: the
// ascending row ids as deltas, or as a bitset when that is smaller.
func appendPostings(dst []byte, ids []uint32) []byte {
	deltaLen, prev := 0, uint32(0)
	for _, id := range ids {
		deltaLen += bitutil.UvarintLen(uint64(id - prev))
		prev = id
	}
	if bitsetLen := int(ids[len(ids)-1])/8 + 1; bitsetLen < deltaLen {
		dst = bitutil.AppendUvarint(dst, uint64(bitsetLen)<<1|postBitset)
		start := len(dst)
		dst = slices.Grow(dst, bitsetLen)[:start+bitsetLen]
		clear(dst[start:])
		for _, id := range ids {
			dst[start+int(id>>3)] |= 1 << (id & 7)
		}
		return dst
	}
	dst = bitutil.AppendUvarint(dst, uint64(deltaLen)<<1|postDeltas)
	prev = 0
	for _, id := range ids {
		dst = bitutil.AppendUvarint(dst, uint64(id-prev))
		prev = id
	}
	return dst
}

// Index provides lookups over a serialized inverted index, in the
// front-coded encoding AppendTo writes, without deserializing the
// dictionary.
type Index struct {
	n       int
	table   []byte // restart offsets
	entries []byte
}

// Open validates the framing of an index AppendTo wrote and returns a
// reader over it. A term count the input could not hold is rejected.
func Open(raw []byte) (*Index, error) {
	n, k, err := bitutil.Uvarint(raw)
	if err != nil {
		return nil, fmt.Errorf("inverted: term count: %w", err)
	}
	rest := uint64(len(raw) - k)
	if n > rest/minEntryBytes {
		return nil, fmt.Errorf("inverted: %d terms exceed %d bytes", n, rest)
	}
	table := k + 4*((int(n)+restartInterval-1)/restartInterval)
	if table+minEntryBytes*int(n) > len(raw) {
		return nil, fmt.Errorf("inverted: restart table truncated: %d terms, %d bytes", n, len(raw))
	}
	return &Index{n: int(n), table: raw[k:table], entries: raw[table:]}, nil
}

// TermCount returns the number of distinct terms.
func (ix *Index) TermCount() int { return ix.n }

// postings is one term's posting list as stored: kind postDeltas or
// postBitset over exactly its bytes.
type postings struct {
	kind byte
	data []byte
}

// appendIDs appends the row ids of p to ids.
func (p postings) appendIDs(ids []uint32) ([]uint32, error) {
	if p.kind == postBitset {
		for j, c := range p.data {
			for ; c != 0; c &= c - 1 {
				ids = append(ids, uint32(8*j+bits.TrailingZeros8(c)))
			}
		}
		return ids, nil
	}
	err := p.forEachDelta(func(id uint32) { ids = append(ids, id) })
	return ids, err
}

// count returns how many row ids p holds, for sizing a result.
func (p postings) count() int {
	c := 0
	if p.kind == postBitset {
		for _, x := range p.data {
			c += bits.OnesCount8(x)
		}
		return c
	}
	for _, x := range p.data { // one uvarint ends at each byte below 0x80
		if x < 0x80 {
			c++
		}
	}
	return c
}

// orInto sets the rows of p in bs; rows at or beyond bs.Len() are
// ignored, as Bitset.Set ignores them.
func (p postings) orInto(bs *bitutil.Bitset) error {
	if p.kind == postBitset {
		bs.OrBytes(p.data)
		return nil
	}
	return p.forEachDelta(func(id uint32) { bs.Set(int(id)) })
}

// forEachDelta decodes a delta list, calling fn with each row id.
func (p postings) forEachDelta(fn func(uint32)) error {
	data, cur := p.data, uint32(0)
	for i := 0; len(data) > 0; i++ {
		d, n, err := bitutil.Uvarint(data)
		if err != nil {
			return fmt.Errorf("inverted: posting %d: %w", i, err)
		}
		data = data[n:]
		cur += uint32(d)
		fn(cur)
	}
	return nil
}

// find returns the postings of term, which the caller has lower-cased;
// ok is false when the dictionary does not hold it.
func (ix *Index) find(term string) (p postings, ok bool, err error) {
	r, err := ix.restartAtOrBefore(term)
	if err != nil || r < 0 {
		return postings{}, false, err
	}
	c := ix.cursor(r)
	for c.i < ix.n {
		if err := c.next(term); err != nil {
			return postings{}, false, err
		}
		if c.cmp >= 0 {
			return c.post, c.cmp == 0, nil
		}
	}
	return postings{}, false, nil
}

// restartAtOrBefore returns the last restart point whose term is at
// most target, or -1 when target sorts before every term.
func (ix *Index) restartAtOrBefore(target string) (int, error) {
	lo, hi := 0, len(ix.table)/4 // the answer is lo-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		t, err := ix.restartTerm(mid)
		if err != nil {
			return 0, err
		}
		if string(t) <= target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1, nil
}

// restartTerm returns the whole term stored at restart point r.
func (ix *Index) restartTerm(r int) ([]byte, error) {
	off := int(bitutil.Uint32(ix.table[4*r:]))
	if off > len(ix.entries) {
		return nil, fmt.Errorf("inverted: restart %d offset %d out of range", r, off)
	}
	e := ix.entries[off:]
	shared, n, err := bitutil.Uvarint(e)
	if err != nil {
		return nil, fmt.Errorf("inverted: restart %d: %w", r, err)
	}
	if shared != 0 {
		return nil, fmt.Errorf("inverted: restart %d shares %d bytes with the term before it", r, shared)
	}
	t, _, err := bitutil.LenBytes(e[n:])
	if err != nil {
		return nil, fmt.Errorf("inverted: restart %d term: %w", r, err)
	}
	return t, nil
}

// cursor returns a cursor before the entry at restart point r.
func (ix *Index) cursor(r int) cursor {
	return cursor{ix: ix, i: r * restartInterval, off: int(bitutil.Uint32(ix.table[4*r:]))}
}

// cursor walks the front-coded dictionary, comparing each term with a
// target without rebuilding it: it tracks the length of the prefix
// the current term shares with the target, and how the two compare.
type cursor struct {
	ix      *Index
	i, off  int // the next entry's position and offset
	prevLen int // length of the current term
	lcp     int // common prefix of the current term and the target
	cmp     int // the current term compared with the target
	post    postings
}

// next advances to the next entry. A term sharing more than the
// target's common prefix with the one before it agrees with that term
// past the point where both part from the target, so it compares the
// same; otherwise its suffix settles the comparison.
func (c *cursor) next(target string) error {
	e := c.ix.entries
	if c.off > len(e) {
		return fmt.Errorf("inverted: entry %d offset %d out of range", c.i, c.off)
	}
	shared, n, err := bitutil.Uvarint(e[c.off:])
	if err != nil {
		return fmt.Errorf("inverted: entry %d prefix: %w", c.i, err)
	}
	c.off += n
	if shared > uint64(c.prevLen) || c.i%restartInterval == 0 && shared != 0 {
		return fmt.Errorf("inverted: entry %d shares %d bytes with a %d-byte term", c.i, shared, c.prevLen)
	}
	suffix, n, err := bitutil.LenBytes(e[c.off:])
	if err != nil {
		return fmt.Errorf("inverted: entry %d term: %w", c.i, err)
	}
	c.off += n
	if s := int(shared); s <= c.lcp {
		l := 0
		for l < len(suffix) && s+l < len(target) && suffix[l] == target[s+l] {
			l++
		}
		c.lcp = s + l
		switch {
		case l == len(suffix) && c.lcp == len(target):
			c.cmp = 0
		case l == len(suffix):
			c.cmp = -1
		case c.lcp == len(target) || suffix[l] > target[c.lcp]:
			c.cmp = 1
		default:
			c.cmp = -1
		}
	}
	c.prevLen = int(shared) + len(suffix)
	h, n, err := bitutil.Uvarint(e[c.off:])
	if err != nil {
		return fmt.Errorf("inverted: entry %d posting header: %w", c.i, err)
	}
	c.off += n
	if h>>1 > uint64(len(e)-c.off) {
		return fmt.Errorf("inverted: entry %d postings of %d bytes exceed %d remaining", c.i, h>>1, len(e)-c.off)
	}
	size := int(h >> 1)
	c.post = postings{kind: byte(h & 1), data: e[c.off : c.off+size]}
	c.off += size
	c.i++
	return nil
}

// Lookup returns the sorted row ids whose value contains term as a
// token (or, in an index written before tokens alone were indexed,
// whose whole value equals it). A missing term yields an empty,
// non-nil slice.
func (ix *Index) Lookup(term string) ([]uint32, error) {
	p, ok, err := ix.find(strings.ToLower(term))
	if err != nil {
		return nil, err
	}
	if !ok {
		return []uint32{}, nil
	}
	return p.appendIDs(make([]uint32, 0, p.count()))
}

// LookupPrefix returns the rows of every term with the given prefix
// (the dictionary is sorted, so this is one search plus a contiguous
// scan).
func (ix *Index) LookupPrefix(prefix string, rowCount int) (*bitutil.Bitset, error) {
	prefix = strings.ToLower(prefix)
	bs := bitutil.NewBitset(rowCount)
	if prefix == "" {
		return bs, nil
	}
	if ix.n == 0 {
		return bs, nil
	}
	r, err := ix.restartAtOrBefore(prefix)
	if err != nil {
		return nil, err
	}
	c := ix.cursor(max(r, 0))
	for c.i < ix.n {
		if err := c.next(prefix); err != nil {
			return nil, err
		}
		if c.lcp == len(prefix) {
			if err := c.post.orInto(bs); err != nil {
				return nil, err
			}
		} else if c.cmp > 0 {
			break
		}
	}
	return bs, nil
}

// LookupBitset returns the matching rows as a bitset sized to rowCount.
func (ix *Index) LookupBitset(term string, rowCount int) (*bitutil.Bitset, error) {
	bs := bitutil.NewBitset(rowCount)
	if err := ix.lookupInto(bs, term); err != nil {
		return nil, err
	}
	return bs, nil
}

// lookupInto sets the rows holding term in bs.
func (ix *Index) lookupInto(bs *bitutil.Bitset, term string) error {
	p, ok, err := ix.find(strings.ToLower(term))
	if err != nil || !ok {
		return err
	}
	return p.orInto(bs)
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
	var next *bitutil.Bitset
	for _, t := range terms[1:] {
		if !acc.Any() {
			return acc, nil
		}
		if next == nil {
			next = bitutil.NewBitset(rowCount)
		} else {
			next.Reset(rowCount)
		}
		if err := ix.lookupInto(next, t); err != nil {
			return nil, err
		}
		acc.And(next)
	}
	return acc, nil
}

// LookupRarest sets in bs the rows of the rarest of terms, which the
// caller has analyzed: a superset of the rows holding every one of
// them, and so the candidate rows of a string equality whose literal
// analyzes to terms. Each term is found first, and a term the
// dictionary lacks leaves bs as it was; of the rest, only the posting
// list with the fewest encoded bytes is decoded. No terms set every
// row.
func (ix *Index) LookupRarest(bs *bitutil.Bitset, terms []string) error {
	if len(terms) == 0 {
		bs.SetAll()
		return nil
	}
	var rarest postings
	least := 0
	for i, t := range terms {
		p, ok, err := ix.find(t)
		if err != nil || !ok {
			return err
		}
		if i == 0 || len(p.data) < least {
			rarest, least = p, len(p.data)
		}
	}
	return rarest.orInto(bs)
}
